"""Auxiliary preconditioner kinds and the factorization retry."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from almprec.auxprecond import (KINDS, FactorizationError,
                                _incomplete_cholesky, build_aux)
from almprec.sparse import SparseSymmetricMatrix


def spd_matrix(rng, n):
    a = rng.standard_normal((n, n))
    return SparseSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n))


def laplacian_5pt(k):
    """The 5-point Laplacian (4 on the diagonal, -1 for each grid
    neighbour) on a k x k grid, n = k^2."""
    idx = np.arange(k * k).reshape(k, k)
    rows = np.concatenate((idx.ravel(), idx[:, 1:].ravel(),
                           idx[1:, :].ravel()))
    cols = np.concatenate((idx.ravel(), idx[:, :-1].ravel(),
                           idx[:-1, :].ravel()))
    vals = np.where(rows == cols, 4.0, -1.0)
    return SparseSymmetricMatrix(k * k, rows, cols, vals)


def dense_incomplete_cholesky(a, drop_tol):
    """
    Reference left-looking incomplete Cholesky on a dense array.
    Sub-diagonal entries smaller than drop_tol times the norm of the
    corresponding column of A are dropped as the factor is formed.
    Returns None on a nonpositive pivot.
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
            col = ((a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j])
                   / lower[j, j])
            col[np.abs(col) < drop_tol * col_norms[j]] = 0.0
            lower[j + 1:, j] = col
    return lower


def ic_factor(m, shift, drop_tol):
    """The factor `_incomplete_cholesky` forms, as a CSC matrix."""
    factor = _incomplete_cholesky(m, shift, drop_tol)
    return (None if factor is None
            else scipy.sparse.csc_matrix(factor, shape=(m.n, m.n)))


class TestKinds:
    def test_identity(self):
        m = spd_matrix(np.random.default_rng(0), 5)
        aux = build_aux(m, "identity")
        r = np.arange(5.0)
        np.testing.assert_allclose(aux.apply(r), r)
        assert aux.nnz == 0

    def test_jacobi_inverts_diagonal(self):
        m = SparseSymmetricMatrix.from_dense(np.diag([2.0, 4.0, 8.0]))
        aux = build_aux(m, "jacobi")
        np.testing.assert_allclose(aux.apply(np.ones(3)),
                                   [0.5, 0.25, 0.125])

    def test_jacobi_rejects_nonpositive_diagonal(self):
        m = SparseSymmetricMatrix.from_dense(np.diag([1.0, -2.0]))
        with pytest.raises(FactorizationError, match="diagonal"):
            build_aux(m, "jacobi")

    def test_exact_dense_is_exact(self):
        rng = np.random.default_rng(1)
        m = spd_matrix(rng, 9)
        aux = build_aux(m, "exact")
        r = rng.standard_normal(9)
        np.testing.assert_allclose(aux.apply(r),
                                   np.linalg.solve(m.to_dense(), r),
                                   rtol=1e-10)

    def test_incomplete_cholesky_zero_drop_is_exact(self):
        rng = np.random.default_rng(2)
        m = spd_matrix(rng, 8)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=0.0)
        r = rng.standard_normal(8)
        np.testing.assert_allclose(aux.apply(r),
                                   np.linalg.solve(m.to_dense(), r),
                                   rtol=1e-9)

    def test_incomplete_cholesky_dropping_reduces_nnz(self):
        rng = np.random.default_rng(3)
        m = spd_matrix(rng, 20)
        exact = build_aux(m, "incomplete-cholesky", drop_tol=0.0)
        dropped = build_aux(m, "incomplete-cholesky", drop_tol=0.2)
        assert dropped.nnz < exact.nnz

    def test_incomplete_cholesky_requires_drop_tol(self):
        m = spd_matrix(np.random.default_rng(4), 4)
        with pytest.raises(ValueError, match="drop tolerance"):
            build_aux(m, "incomplete-cholesky")

    def test_incomplete_cholesky_rejects_negative_drop_tol(self):
        m = spd_matrix(np.random.default_rng(4), 4)
        with pytest.raises(ValueError, match="nonnegative"):
            build_aux(m, "incomplete-cholesky", drop_tol=-0.1)

    def test_unknown_kind(self):
        m = spd_matrix(np.random.default_rng(5), 3)
        for kind in ("nope", "exact-dense"):
            with pytest.raises(ValueError, match="unknown"):
                build_aux(m, kind)

    def test_inverts_only_when_apply_is_exact(self):
        rng = np.random.default_rng(9)
        m = spd_matrix(rng, 6)
        diag = SparseSymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert build_aux(m, "identity").inverts is None
        assert build_aux(m, "jacobi").inverts is None
        assert build_aux(diag, "jacobi").inverts is diag
        assert build_aux(m, "exact").inverts is m
        assert build_aux(m, "incomplete-cholesky", 0.0).inverts is m
        assert build_aux(m, "incomplete-cholesky", 0.1).inverts is None

    def test_all_kinds_produce_spd_apply(self):
        rng = np.random.default_rng(6)
        m = spd_matrix(rng, 10)
        for kind in KINDS:
            aux = build_aux(m, kind,
                            0.1 if kind == "incomplete-cholesky" else None)
            op = np.column_stack([aux.apply(col) for col in np.eye(10)])
            eigs = np.linalg.eigvalsh(0.5 * (op + op.T))
            assert eigs.min() > 0.0, kind


class TestRetryAndFailure:
    def test_shift_retry_recovers_semidefinite(self):
        # Singular PSD matrices: plain factorization hits a zero pivot, the
        # shifted retry succeeds.  A dense Cholesky of the second one
        # rounds its zero pivot to 4.4e-16 and accepts it.
        for dense in (np.ones((3, 3)), np.array([[2.0, -2.0], [-2.0, 2.0]])):
            m = SparseSymmetricMatrix.from_dense(dense)
            aux = build_aux(m, "exact")
            assert aux.shift > 0.0 and aux.inverts is None
            r = np.ones(m.n)
            assert np.all(np.isfinite(aux.apply(r)))

    def test_shift_reaches_an_unstored_diagonal_entry(self):
        # PSD with a zero diagonal entry that m does not store: only a
        # shift on the whole diagonal makes it definite.
        m = SparseSymmetricMatrix(2, [0], [0], [1.0])
        aux = build_aux(m, "exact")
        assert aux.shift > 0.0 and aux.inverts is None
        np.testing.assert_allclose(
            aux.apply(np.ones(2)),
            [1.0 / (1.0 + aux.shift), 1.0 / aux.shift], rtol=1e-15)

    def test_indefinite_raises_after_retry(self):
        dense = np.diag([1.0, -100.0])
        m = SparseSymmetricMatrix.from_dense(dense)
        with pytest.raises(FactorizationError, match="not factorizable"):
            build_aux(m, "exact")
        with pytest.raises(FactorizationError, match="not factorizable"):
            build_aux(m, "incomplete-cholesky", drop_tol=0.1)


# Two summation orders of the same sums: a few units of roundoff in the
# largest factor entry.
FACTOR_RTOL = 16 * np.finfo(np.float64).eps


def arrow_matrix(n):
    """4 on the diagonal and a full first column of ones: eliminating
    column 0 fills every (i, j), i > j > 0, outside A's pattern."""
    rows = np.concatenate((np.arange(n), np.arange(1, n)))
    cols = np.concatenate((np.arange(n), np.zeros(n - 1, dtype=int)))
    return SparseSymmetricMatrix(n, rows, cols, np.where(rows == cols, 4.0,
                                                         1.0))


ORACLE_CASES = (
    [("random-%d-%g" % (n, t), spd_matrix(np.random.default_rng(n), n), t)
     for n in (1, 2, 50) for t in (0.0, 1e-2, 0.2)]
    + [("laplacian-%g" % t, laplacian_5pt(8), t) for t in (0.0, 1e-2)]
    + [("arrow-%g" % t, arrow_matrix(12), t) for t in (0.0, 1e-2)])


class TestIncompleteCholeskyFactor:
    """The sparse factor against the dense reference loop: the same
    pattern and nnz, and the same entries up to summation order."""

    @staticmethod
    def assert_matches_oracle(m, shift, drop_tol):
        want = dense_incomplete_cholesky(m.to_dense() + shift * np.eye(m.n),
                                         drop_tol)
        lower = ic_factor(m, shift, drop_tol)
        assert want is not None and lower is not None
        assert lower.has_canonical_format
        got = lower.toarray()
        np.testing.assert_array_equal(got != 0.0, want != 0.0)
        assert lower.nnz == np.count_nonzero(want)
        assert (np.max(np.abs(got - want))
                <= FACTOR_RTOL * np.max(np.abs(want)))
        return lower

    @pytest.mark.parametrize("name, m, drop_tol", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_matches_dense_oracle(self, name, m, drop_tol):
        lower = self.assert_matches_oracle(m, 0.0, drop_tol)
        if name.startswith("arrow"):
            assert np.any((lower.toarray() != 0.0) & (m.to_dense() == 0.0))

    def test_shifted_retry_drops_against_shifted_column_norms(self):
        # All-ones 2x2: unshifted, l_10 = 1 is kept and the second pivot
        # is 0.  The retry factors A + 1e-3 I, where
        # l_10 = 1/sqrt(1.001) = 0.99950 falls below
        # drop_tol * ||(A + 1e-3 I)[:, 0]|| = 0.99978 but not below
        # drop_tol * ||A[:, 0]|| = 0.99928.
        m = SparseSymmetricMatrix.from_dense(np.ones((2, 2)))
        drop_tol = 0.7066
        aux = build_aux(m, "incomplete-cholesky", drop_tol)
        assert aux.shift == 1e-3
        assert 1.0 / np.sqrt(1.0 + aux.shift) >= drop_tol * np.sqrt(2.0)
        lower = self.assert_matches_oracle(m, aux.shift, drop_tol)
        assert lower.nnz == aux.nnz == 2

    @pytest.mark.parametrize("rows, cols, vals", [
        # l_21 = (1 - l_20 l_10) / l_11 cancels to exactly 0.
        ([0, 1, 1, 2, 2, 2], [0, 0, 1, 0, 1, 2], [1, 1, 2, 1, 1, 2]),
        # An explicitly stored zero below the diagonal.
        ([0, 1, 1], [0, 0, 1], [2.0, 0.0, 3.0]),
    ])
    def test_zero_drop_tol_stores_no_exact_zeros(self, rows, cols, vals):
        m = SparseSymmetricMatrix(max(rows) + 1, rows, cols, vals)
        lower = self.assert_matches_oracle(m, 0.0, 0.0)
        assert np.all(lower.data != 0.0)
        assert lower.nnz < m.nnz
        assert build_aux(m, "incomplete-cholesky", 0.0).nnz == lower.nnz

    def test_missing_diagonal_entry_raises(self):
        # (1, 1) is not stored: A = [[1, 1], [1, 0]] is indefinite, and
        # so is A + 1e-3 I.
        m = SparseSymmetricMatrix(2, [0, 1], [0, 0], [1.0, 1.0])
        for shift in (0.0, 1e-3):
            assert dense_incomplete_cholesky(
                m.to_dense() + shift * np.eye(2), 0.0) is None
            assert _incomplete_cholesky(m, shift, 0.0) is None
        with pytest.raises(FactorizationError, match="not factorizable"):
            build_aux(m, "incomplete-cholesky", drop_tol=0.0)

    @pytest.mark.parametrize("k", [50, 100])
    def test_builds_in_memory_linear_in_n(self, k):
        # The traced peak of a whole IC build on a 5-point Laplacian was
        # 1.4 MiB at n = 2500 and 5.8 MiB at n = 10^4; one dense n x n
        # array is 48 MiB and 763 MiB.
        m = laplacian_5pt(k)
        bound = 3072 * m.n
        assert 4 * bound <= 8 * m.n * m.n
        tracemalloc.start()
        try:
            aux = build_aux(m, "incomplete-cholesky", 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aux.shift == 0.0 and aux.nnz < 5 * m.n
        assert peak <= bound


def test_exact_builds_without_an_n_by_n_array():
    # The traced peak of the exact build on a 5-point Laplacian was
    # 0.4 MiB at n = 1024, against 24 MiB for a dense factor of a dense
    # copy; one dense n x n array is 8 MiB.  SuperLU's own memory is not
    # traced; its fill is the factor's `nnz`.
    m = laplacian_5pt(32)
    tracemalloc.start()
    try:
        aux = build_aux(m, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aux.shift == 0.0 and aux.inverts is m
    assert aux.nnz < 12 * m.n
    assert peak <= 8 * m.n * m.n / 8


class TestSparseIncompleteCholesky:
    """The sparse IC apply against dense triangular solves with the factor
    that the build forms."""

    @staticmethod
    def matrix(n, shifted):
        # A singular PSD matrix has a zero pivot, so only the shifted
        # retry factors it; a 1x1 matrix cannot take that route.
        if shifted:
            return SparseSymmetricMatrix.from_dense(np.ones((n, n)))
        return spd_matrix(np.random.default_rng(n), n)

    @pytest.mark.parametrize("drop_tol", [0.0, 1e-2])
    @pytest.mark.parametrize("n, shifted", [(1, False), (2, False), (2, True),
                                            (50, False), (50, True)])
    def test_apply_matches_dense_triangular_solves(self, n, shifted,
                                                   drop_tol):
        m = self.matrix(n, shifted)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=drop_tol)
        assert (aux.shift > 0.0) == shifted
        lower = ic_factor(m, aux.shift, drop_tol)
        assert aux.nnz == lower.nnz
        lower = lower.toarray()
        rhs = np.random.default_rng(0).standard_normal((n, 3))
        for r in [rhs[:, 0], rhs]:
            want = scipy.linalg.solve_triangular(
                lower, scipy.linalg.solve_triangular(lower, r, lower=True),
                lower=True, trans="T")
            got = aux.apply(r)
            assert got.shape == r.shape
            assert (np.linalg.norm(got - want)
                    <= 1e-14 * np.linalg.norm(want))


@pytest.mark.parametrize("kind", KINDS)
def test_block_apply_equals_columnwise_apply(kind):
    rng = np.random.default_rng(10)
    m = spd_matrix(rng, 12)
    aux = build_aux(m, kind, 0.1 if kind == "incomplete-cholesky" else None)
    block = rng.standard_normal((12, 4))
    want = np.column_stack([aux.apply(col) for col in block.T])
    np.testing.assert_allclose(aux.apply(block), want, rtol=1e-15, atol=0.0)
    for bad in (np.ones(11), np.ones((11, 2)), np.ones((12, 2, 2))):
        with pytest.raises(ValueError, match="dimension"):
            aux.apply(bad)
