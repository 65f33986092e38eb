"""
auxprecond.py

Auxiliary preconditioner for the Lagrangian-Hessian block M: identity,
Jacobi, incomplete Cholesky with drop tolerance, or an exact sparse LDL'
factor.  The structured preconditioner is agnostic to which of these is
plugged in.  Every kind keeps sparse storage and forms no n x n array:
the incomplete Cholesky factor is built from M's stored lower triangle
in O(n + nnz(L)) memory, and `exact` is SuperLU's factor of M in a
fill-reducing order (`ldlt`), whose memory is its fill.
"""

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


KINDS = ("identity", "jacobi", "incomplete-cholesky", "exact")


class FactorizationError(RuntimeError):
    """The M block could not be factored, even after a diagonal shift."""


class AuxPrecond:
    """
    Built factors for approximating M^-1 r.  Immutable, so a structured
    preconditioner assembled on it stays valid.  `inverts` is the matrix
    M that was factored when the apply is its exact inverse (unshifted
    `exact`, unshifted `incomplete-cholesky` with drop_tol 0, `jacobi` on
    a diagonal M), and None otherwise.

    The factored kinds hold a SuperLU handle built once: IC's sparse L
    (`nnz` entries), applied as L^-T (L^-1 r) by two compiled triangular
    solves, or the LDL' of `exact` (`nnz` counts its lower triangle),
    applied by one solve.  `apply` takes a vector of length n or an
    (n, k) block; a block gives the same result as applying each column.
    """

    def __init__(self, kind, n, nnz, inv_diag=None, lu=None, shift=0.0,
                 inverts=None):
        self.kind = kind
        self.n = n
        self.nnz = nnz
        self._inv_diag = inv_diag
        self._lu = lu
        self.shift = shift
        self.inverts = inverts

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        if r.ndim not in (1, 2) or r.shape[0] != self.n:
            raise ValueError("dimension mismatch: expected length %d or "
                             "an (%d, k) block" % (self.n, self.n))
        if self.kind == "identity":
            return r.copy()
        if self.kind == "jacobi":
            return (self._inv_diag if r.ndim == 1
                    else self._inv_diag[:, None]) * r
        if self.kind == "incomplete-cholesky":
            return self._lu.solve(self._lu.solve(r), trans="T")
        return self._lu.solve(r)


def build_aux(m, kind, drop_tol=None):
    """
    Build an auxiliary preconditioner of the given kind for a
    SparseSymmetricMatrix m.

    A nonpositive pivot in the factored kinds triggers one retry with the
    diagonal shift 1e-3 * ||diag(M)||_inf; a second failure raises
    FactorizationError("not factorizable").  A build whose apply is the
    exact inverse of m keeps a reference to m as `inverts`.

    `incomplete-cholesky` reads m's stored entries directly and keeps
    O(n + nnz(L)) memory, with time proportional to the multiply-adds
    its columns take; `exact` factors m with `ldlt`, in O(fill) memory.
    """
    if kind not in KINDS:
        raise ValueError("unknown auxiliary preconditioner kind %r" % kind)
    if kind == "identity":
        return AuxPrecond(kind, m.n, 0)
    if kind == "jacobi":
        diag = m.diagonal()
        if np.any(diag <= 0.0):
            raise FactorizationError("nonpositive diagonal entry")
        diagonal_m = not np.any(m.vals[m.rows != m.cols])
        return AuxPrecond(kind, m.n, m.n, inv_diag=1.0 / diag,
                          inverts=m if diagonal_m else None)

    shift = 1e-3 * np.max(np.abs(m.diagonal()))
    if kind == "exact":
        for beta in (0.0, shift):
            lu = ldlt(m.to_csr(), beta)
            if lu is not None:
                return AuxPrecond(kind, m.n, lu.L.nnz, lu=lu, shift=beta,
                                  inverts=m if beta == 0.0 else None)
        raise FactorizationError("not factorizable")

    if drop_tol is None:
        raise ValueError("incomplete-cholesky requires a drop tolerance")
    if not drop_tol >= 0.0:
        raise ValueError("drop tolerance must be nonnegative")
    for beta in (0.0, shift):
        factor = _incomplete_cholesky(m, beta, drop_tol)
        if factor is not None:
            data, indices, indptr = factor
            # Arrays, not lists: scipy converts a list item by item.
            lower = scipy.sparse.csc_matrix(
                (np.array(data), np.array(indices, dtype=np.int32),
                 np.array(indptr, dtype=np.int32)), shape=(m.n, m.n))
            # SuperLU with the natural ordering and no pivoting factors
            # the triangular L as (L D^-1) D with D = diag(L): no fill, and
            # its solves are the triangular solves with L.
            lu = scipy.sparse.linalg.splu(lower, permc_spec="NATURAL",
                                          diag_pivot_thresh=0.0)
            exact = beta == 0.0 and drop_tol == 0.0
            return AuxPrecond(kind, m.n, lower.nnz, lu=lu, shift=beta,
                              inverts=m if exact else None)
    raise FactorizationError("not factorizable")


def ldlt(full, shift):
    """SuperLU's LDL' factor of full + shift*I, or None unless that
    matrix is positive definite.  `full`, a new CSR array of a whole
    symmetric matrix (`SparseSymmetricMatrix.to_csr`), takes the shift in
    place on its whole diagonal, stored or not.  Symmetric mode, the MMD
    order of A' + A and diagonal pivots only make U's diagonal the pivots
    D, all positive exactly when the matrix is positive definite
    (Sylvester's law of inertia).  An off-diagonal pivot, which SuperLU
    takes where a diagonal one is zero, or a singular factor gives None."""
    n = full.shape[0]
    on_diag = full.indices == np.repeat(np.arange(n), np.diff(full.indptr))
    if shift != 0.0 and np.count_nonzero(on_diag) < n:
        full = full + shift * scipy.sparse.eye_array(n, format="csr")
    else:
        full.data[on_diag] += shift
    try:  # full is symmetric, so its CSC transpose is itself
        lu = scipy.sparse.linalg.splu(
            full.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    pd = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)
    return lu if pd else None


def _column_norms(m, diag):
    """2-norms of the columns of the full symmetric matrix with stored
    off-diagonal entries of m and diagonal `diag`.  Each column is summed
    in increasing row order, as a dense column norm is."""
    off = m.rows != m.cols
    rows, cols, vals = m.rows[off], m.cols[off], m.vals[off]
    every = np.arange(m.n)
    col = np.concatenate((rows, cols, every))
    row = np.concatenate((cols, rows, every))
    sq = np.concatenate((vals * vals, vals * vals, diag * diag))
    order = np.lexsort((row, col))
    return np.sqrt(np.bincount(col[order], sq[order], minlength=m.n))


def _incomplete_cholesky(m, shift, drop_tol):
    """
    Left-looking, column-oriented incomplete Cholesky of A = m + shift*I
    (as in ICFS, Lin & More, SIAM J. Sci. Comput. 21, 1999).  Column j
    of the factor is l_j = (a_j - sum_k l_jk l_k) / l_jj over the earlier
    columns k with l_jk != 0.  A sub-diagonal entry is dropped as its
    column is formed when |l_ij| < drop_tol * ||A[:, j]||_2, and exact
    zeros are never stored.  Each earlier column waits in a linked list
    on the row of its next stored entry, so finding the k for column j
    takes no search, and beside the factor only O(n) work vectors are
    kept.  Returns the CSC arrays (data, indices, indptr) of the lower
    triangular factor, diagonal first in each column, or None on a
    nonpositive pivot.
    """
    n = m.n
    diag = m.diagonal() + shift
    thresholds = (drop_tol * _column_norms(m, diag)).tolist()
    diag = diag.tolist()
    # The strict lower triangle of A in column order.
    off = np.flatnonzero(m.rows != m.cols)
    off = off[np.lexsort((m.rows[off], m.cols[off]))]
    a_rows, a_vals = m.rows[off].tolist(), m.vals[off].tolist()
    a_ptr = np.searchsorted(m.cols[off], np.arange(n + 1)).tolist()

    data, indices, indptr = [], [], [0]
    head = [-1] * n     # head[i]: first column whose next entry is in row i
    link = [-1] * n     # link[k]: the column after k in the same row list
    pos = [0] * n       # pos[k]: position in `indices` of that next entry
    work = [0.0] * n    # column j's sums sum_k l_ik l_jk, then its l_ij
    mark = [-1] * n     # mark[i] == j: row i is in column j's pattern
    for j in range(n):
        lo, hi = a_ptr[j], a_ptr[j + 1]
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
