"""
auxprecond.py

Auxiliary preconditioner for the Lagrangian-Hessian block M: identity,
Jacobi, incomplete Cholesky with drop tolerance, or an exact dense
Cholesky factor.  The structured preconditioner is agnostic to which of
these is plugged in.
"""

import hashlib

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


KINDS = ("identity", "jacobi", "incomplete-cholesky", "exact-dense")


class FactorizationError(RuntimeError):
    """The M block could not be factored, even after a diagonal shift."""


class AuxPrecond:
    """
    Built factors for approximating M^-1 r.  Immutable; `token` is a
    content hash used by the structured preconditioner for staleness
    checks.  `inverts` is the matrix M that was factored when the apply
    is its exact inverse (unshifted `exact-dense`, unshifted
    `incomplete-cholesky` with drop_tol 0, `jacobi` on a diagonal M),
    and None otherwise.

    The incomplete-Cholesky factor L is stored sparse (`nnz` entries,
    handed over in CSC form to a SuperLU handle built once) and applied
    as L^-T (L^-1 r) by two compiled sparse triangular solves, O(nnz)
    each.  `apply` takes a vector of length n or an (n, k) block; a block
    gives the same result as applying each of its columns.
    """

    def __init__(self, kind, n, nnz, token, inv_diag=None, lu=None,
                 cho=None, shift=0.0, inverts=None):
        self.kind = kind
        self.n = n
        self.nnz = nnz
        self.token = token
        self._inv_diag = inv_diag
        self._lu = lu
        self._cho = cho
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
        return scipy.linalg.cho_solve(self._cho, r)


def build_aux(m, kind, drop_tol=None):
    """
    Build an auxiliary preconditioner of the given kind for a
    SparseSymmetricMatrix m.

    A nonpositive pivot in the factored kinds triggers one retry with the
    diagonal shift 1e-3 * ||diag(M)||_inf; a second failure raises
    FactorizationError("not factorizable").  A build whose apply is the
    exact inverse of m keeps a reference to m as `inverts`.
    """
    if kind not in KINDS:
        raise ValueError("unknown auxiliary preconditioner kind %r" % kind)
    token = _token(m, kind, drop_tol)
    if kind == "identity":
        return AuxPrecond(kind, m.n, 0, token)
    if kind == "jacobi":
        diag = m.diagonal()
        if np.any(diag <= 0.0):
            raise FactorizationError("nonpositive diagonal entry")
        diagonal_m = not np.any(m.vals[m.rows != m.cols])
        return AuxPrecond(kind, m.n, m.n, token, inv_diag=1.0 / diag,
                          inverts=m if diagonal_m else None)

    dense = m.to_dense()
    shift = 1e-3 * np.max(np.abs(np.diag(dense))) if m.n else 0.0
    if kind == "exact-dense":
        for attempt, beta in enumerate((0.0, shift)):
            try:
                cho = scipy.linalg.cho_factor(
                    dense + beta * np.eye(m.n), lower=True)
            except scipy.linalg.LinAlgError:
                continue
            nnz = m.n * (m.n + 1) // 2
            return AuxPrecond(kind, m.n, nnz, token, cho=cho, shift=beta,
                              inverts=m if beta == 0.0 else None)
        raise FactorizationError("not factorizable")

    if drop_tol is None:
        raise ValueError("incomplete-cholesky requires a drop tolerance")
    if not drop_tol >= 0.0:
        raise ValueError("drop tolerance must be nonnegative")
    for beta in (0.0, shift):
        lower = _incomplete_cholesky(dense + beta * np.eye(m.n), drop_tol)
        if lower is not None:
            lower = scipy.sparse.csc_matrix(lower)
            # SuperLU with the natural ordering and no pivoting factors
            # the triangular L as (L D^-1) D with D = diag(L): no fill, and
            # its solves are the triangular solves with L.
            lu = scipy.sparse.linalg.splu(lower, permc_spec="NATURAL",
                                          diag_pivot_thresh=0.0)
            exact = beta == 0.0 and drop_tol == 0.0
            return AuxPrecond(kind, m.n, lower.nnz, token, lu=lu, shift=beta,
                              inverts=m if exact else None)
    raise FactorizationError("not factorizable")


def _incomplete_cholesky(a, drop_tol):
    """
    Left-looking incomplete Cholesky.  Sub-diagonal entries smaller than
    drop_tol times the norm of the corresponding column of A are dropped
    as the factor is formed.  Returns None on a nonpositive pivot.
    """
    n = a.shape[0]
    lower = np.zeros((n, n))
    col_norms = np.linalg.norm(a, axis=0)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0.0:
            return None
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            col = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
            col[np.abs(col) < drop_tol * col_norms[j]] = 0.0
            lower[j + 1:, j] = col
    return lower


def _token(m, kind, drop_tol):
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(repr(drop_tol).encode())
    h.update(np.int64(m.n).tobytes())
    h.update(m.rows.astype(np.int64).tobytes())
    h.update(m.cols.astype(np.int64).tobytes())
    h.update(m.vals.tobytes())
    return h.hexdigest()
