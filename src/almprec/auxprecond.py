"""
auxprecond.py

Auxiliary preconditioner for the Lagrangian-Hessian block M: identity,
Jacobi, incomplete Cholesky with drop tolerance, or an exact sparse LDL'
factor.  The structured preconditioner is agnostic to which of these is
plugged in.  Every kind keeps sparse storage and forms no n x n array:
the incomplete Cholesky factor is built from M's stored lower triangle
in O(n + nnz(L)) memory, with its values unboxed in an array('d') that
scipy reads in place, and `exact` is SuperLU's factor of M in a
fill-reducing order (`ldlt`), whose memory is its fill.
"""

import math
from array import array

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


KINDS = ("identity", "jacobi", "incomplete-cholesky", "exact")


class AuxPrecond:
    """
    Built factors for approximating M^-1 r.  Immutable, so a structured
    preconditioner assembled on it stays valid.  `inverts` is the matrix
    M that was factored when the apply is its exact inverse (`exact`,
    `incomplete-cholesky` with drop_tol 0 and `jacobi` on a diagonal M,
    each unshifted), and None otherwise.

    The factored kinds hold a SuperLU handle built once: IC's sparse L
    (`nnz` entries), applied as L^-T (L^-1 r) by two compiled triangular
    solves, or the LDL' of `exact` (`nnz` counts its lower triangle),
    applied by one solve.  `apply` takes a vector of length n or an
    (n, k) block; a block gives the same result as applying each column.
    It returns a new array, which the caller may overwrite: `identity`
    and `jacobi` keep the layout of r, and the factored kinds return a
    block column-major.

    IC is `split`: M^-1 ~ L^-T L^-1, and `apply(r, half="forward")` gives
    L^-1 r, `apply(r, half="backward")` L^-T r, the two solves of a whole
    apply.  The other kinds have no halves.
    """

    def __init__(self, kind, n, nnz, factor=None, shift=0.0, inverts=None):
        self.kind = kind
        self.n = n
        self.nnz = nnz
        self._factor = factor
        self.shift = shift
        self.inverts = inverts

    @property
    def split(self):
        return self.kind == "incomplete-cholesky"

    def apply(self, r, half=None):
        r = np.asarray(r, dtype=np.float64)
        if r.ndim not in (1, 2) or r.shape[0] != self.n:
            raise ValueError("dimension mismatch: expected length %d or "
                             "an (%d, k) block" % (self.n, self.n))
        if half is not None and not (self.split
                                     and half in ("forward", "backward")):
            raise ValueError("%s has no half %r" % (self.kind, half))
        if self.kind == "identity":
            return r.copy(order="K")
        if self.kind == "jacobi":
            if r.ndim == 1:
                return self._factor * r
            # einsum scales the rows of a block without the buffer that a
            # broadcast product allocates.
            return np.einsum("i,ij->ij", self._factor, r)
        if self.kind == "exact":
            return self._factor.solve(r)
        if half == "backward":
            return self._factor.solve(r, trans="T")
        x = self._factor.solve(r)
        return x if half == "forward" else self._factor.solve(x, trans="T")


def build_aux(m, kind, drop_tol=None):
    """
    Build an auxiliary preconditioner of the given kind for a
    SparseSymmetricMatrix m.

    The one owner of an m that cannot be factored: every kind but
    `identity` builds on m + beta I for beta = 0, 1e-3 ||diag m||_inf,
    skipping a beta with min(diag m) + beta <= 0, where every kind meets
    a nonpositive pivot (Jacobi's diagonal, IC's a_jj - sum_k l_jk^2, the
    LDL' pivot), then at `_gershgorin_shift(m)` (computed only when
    reached), which cannot fail.  `shift` records the beta built with.
    """
    if kind not in KINDS:
        raise ValueError("unknown auxiliary preconditioner kind %r" % kind)
    if kind == "identity":
        return AuxPrecond(kind, m.n, 0)
    if kind == "incomplete-cholesky" and (isinstance(drop_tol, bool)
                                          or not (drop_tol is not None
                                                  and drop_tol >= 0.0)):
        raise ValueError("incomplete-cholesky requires a nonnegative drop "
                         "tolerance, got %r" % (drop_tol,))
    diag = m.diagonal()
    lowest, small = diag.min(), 1e-3 * np.max(np.abs(diag))
    del diag  # two scalars, not n, stay alive while m is factored
    for shift in (0.0, small):
        if lowest + shift > 0.0:  # else no kind can factor m + shift I
            aux = _build(m, kind, drop_tol, shift)
            if aux is not None:
                return aux
    return _build(m, kind, drop_tol, _gershgorin_shift(m))


def _gershgorin_shift(m):
    """max(beta_G, 0) + 0.1 max(||diag m||_inf, max_i r_i), 0.1 for m = 0,
    from the off-diagonal row sums r_i = sum_{j != i} |m_ij| (O(nnz)) and
    the Gershgorin bound beta_G = max_i (r_i - m_ii).  For beta > beta_G,
    m + beta I is a strictly diagonally dominant H-matrix with a positive
    diagonal: definite, and IC exists on every pattern (Manteuffel, Math.
    Comp. 34, 1980)."""
    off = m.rows != m.cols
    size = np.abs(m.vals[off])
    radius = (np.bincount(m.rows[off], size, minlength=m.n)
              + np.bincount(m.cols[off], size, minlength=m.n))
    diag = m.diagonal()
    scale = max(np.max(np.abs(diag)), radius.max())
    return float(max(np.max(radius - diag), 0.0) + 0.1 * (scale or 1.0))


def _build(m, kind, drop_tol, shift):
    """The auxiliary of `kind` for m + shift I, or None when its
    factorization fails; only an unshifted one may keep m as `inverts`."""
    a = m.shifted(shift) if shift else m
    inverts = None if shift else m  # shifted, it inverts m + shift I at best
    if kind == "jacobi":
        return AuxPrecond(kind, a.n, a.n, 1.0 / a.diagonal(), shift, (
            None if np.any(a.vals[a.rows != a.cols]) else inverts))
    if kind == "exact":
        lu = ldlt(a.to_csr())
        return None if lu is None else AuxPrecond(kind, a.n, lu.L.nnz, lu,
                                                  shift, inverts)
    factor = _incomplete_cholesky(a, drop_tol)
    if factor is None:
        return None
    data, indices, indptr = factor
    # Arrays, not lists: scipy converts a list item by item.  The values
    # are read in place from their array('d').
    lower = scipy.sparse.csc_matrix(
        (np.frombuffer(data), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)), shape=(a.n, a.n))
    # SuperLU with the natural ordering and no pivoting factors the
    # triangular L as (L D^-1) D with D = diag(L): no fill, and its solves
    # are the triangular solves with L.
    lu = scipy.sparse.linalg.splu(lower, permc_spec="NATURAL",
                                  diag_pivot_thresh=0.0)
    return AuxPrecond(kind, a.n, lower.nnz, lu, shift,
                      inverts if drop_tol == 0.0 else None)


def ldlt(full):
    """SuperLU's LDL' factor of `full`, a CSR array of a whole symmetric
    matrix (`SparseSymmetricMatrix.to_csr`), or None unless it is
    positive definite.  Symmetric mode, the MMD order of A' + A and
    diagonal pivots only make U's diagonal the pivots D, all positive
    exactly when the matrix is positive definite (Sylvester's law of
    inertia).  An off-diagonal pivot, which SuperLU takes where a
    diagonal one is zero, or a singular factor gives None."""
    try:  # full is symmetric, so its CSC transpose is itself
        lu = scipy.sparse.linalg.splu(
            full.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    pd = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)
    return lu if pd else None


def _column_norms(m, diag, by_col):
    """2-norms of the columns of the full symmetric matrix with stored
    off-diagonal entries of m and diagonal `diag`; `by_col` indexes those
    entries in column order.  Each column is summed in increasing row
    order, as a dense column norm is: bincount adds in input order, and
    column j takes row j's stored entries (the rows above the diagonal),
    its diagonal, then column j's stored entries (the rows below)."""
    off = np.flatnonzero(m.rows != m.cols)
    sq = m.vals[off] ** 2
    col = np.concatenate((m.rows[off], np.arange(m.n), m.cols[by_col]))
    return np.sqrt(np.bincount(
        col, np.concatenate((sq, diag * diag, m.vals[by_col] ** 2)),
        minlength=m.n))


def _incomplete_cholesky(m, drop_tol):
    """
    Left-looking, column-oriented incomplete Cholesky of A = m (as in
    ICFS, Lin & More, SIAM J. Sci. Comput. 21, 1999).  Column j of the
    factor is l_j = (a_j - sum_k l_jk l_k) / l_jj over the earlier
    columns k with l_jk != 0.  A sub-diagonal entry is dropped as its
    column is formed when |l_ij| < drop_tol * ||A[:, j]||_2, and exact
    zeros are never stored.  Each earlier column waits in a linked list
    on the row of its next stored entry, so finding the k for column j
    takes no search, and beside the factor only O(n) work vectors are
    kept.  Returns the CSC arrays (data, indices, indptr) of the lower
    triangular factor, diagonal first in each column, or None on a
    nonpositive pivot: the values in an array('d'), the indices in lists.
    """
    n = m.n
    diag = m.diagonal()
    # The strict lower triangle of A in column order: m is row-major, so a
    # stable sort by column keeps each column's rows ascending.
    off = np.flatnonzero(m.rows != m.cols)
    off = off[np.argsort(m.cols[off], kind="stable")]
    # Values are read through memoryviews and the factor's values are
    # kept in an array('d'): 8 bytes each, where a list holds a 24-byte
    # Python float and its 8-byte slot.
    thresholds = memoryview(drop_tol * _column_norms(m, diag, off))
    diag = memoryview(diag)
    a_rows, a_vals = m.rows[off].tolist(), memoryview(m.vals[off])
    # Where each column of A ends in a_rows and a_vals: C longs, read once
    # per column, and the column order is freed before the loop.
    # `indices`, `indptr` and `pos`, read in the inner loop, stay lists:
    # typed arrays slowed it by 8-15%.
    a_end = array("l", np.searchsorted(m.cols[off], np.arange(1, n + 1))
                  .astype("l", copy=False).tobytes())
    del off

    data, indices, indptr = array("d"), [], [0]
    head = [-1] * n     # head[i]: first column whose next entry is in row i
    link = [-1] * n     # link[k]: the column after k in the same row list
    pos = [0] * n       # pos[k]: position in `indices` of that next entry
    work = [0.0] * n    # column j's sums sum_k l_ik l_jk, then its l_ij
    mark = [-1] * n     # mark[i] == j: row i is in column j's pattern
    hi = 0
    for j, end in enumerate(a_end):
        lo, hi = hi, end
        pattern = a_rows[lo:hi]
        for i in pattern:
            work[i] = 0.0
            mark[i] = j
        squares = 0.0
        k = head[j]
        while k >= 0:
            after, p, end = link[k], pos[k], indptr[k + 1]
            ljk = data[p]
            squares += ljk * ljk
            for q in range(p + 1, end):
                i = indices[q]
                if mark[i] != j:
                    mark[i] = j
                    work[i] = 0.0
                    pattern.append(i)
                work[i] += data[q] * ljk
            if p + 1 < end:
                pos[k] = p + 1
                row = indices[p + 1]
                link[k], head[row] = head[row], k
            k = after
        pivot = diag[j] - squares
        if pivot <= 0.0:
            return None
        ljj = math.sqrt(pivot)
        # l_ij = (a_ij - sum) / l_jj, formed as -(sum - a_ij) / l_jj: the
        # same number, and a fill entry's a_ij = 0 needs no lookup.
        for i, a in zip(a_rows[lo:hi], a_vals[lo:hi]):
            work[i] -= a
        kept, tol = [], thresholds[j]
        for i in pattern:
            lij = -work[i] / ljj
            if lij != 0.0 and abs(lij) >= tol:
                work[i] = lij
                kept.append(i)
        kept.sort()
        indices.append(j)
        data.append(ljj)
        if kept:
            pos[j] = len(indices)
            link[j], head[kept[0]] = head[kept[0]], j
        indices.extend(kept)
        data.extend([work[i] for i in kept])
        indptr.append(len(indices))
    return data, indices, indptr
