"""Auxiliary preconditioner kinds and the factorization retry."""

import numpy as np
import pytest
import scipy.linalg

from almprec.auxprecond import (KINDS, FactorizationError,
                                _incomplete_cholesky, build_aux)
from almprec.sparse import SparseSymmetricMatrix


def spd_matrix(rng, n):
    a = rng.standard_normal((n, n))
    return SparseSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n))


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
        aux = build_aux(m, "exact-dense")
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
        with pytest.raises(ValueError, match="unknown"):
            build_aux(m, "nope")

    def test_inverts_only_when_apply_is_exact(self):
        rng = np.random.default_rng(9)
        m = spd_matrix(rng, 6)
        diag = SparseSymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert build_aux(m, "identity").inverts is None
        assert build_aux(m, "jacobi").inverts is None
        assert build_aux(diag, "jacobi").inverts is diag
        assert build_aux(m, "exact-dense").inverts is m
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
        # Singular PSD matrix: plain factorization hits a zero pivot, the
        # shifted retry succeeds.
        dense = np.ones((3, 3))
        m = SparseSymmetricMatrix.from_dense(dense)
        aux = build_aux(m, "exact-dense")
        assert aux.shift > 0.0
        r = np.ones(3)
        assert np.all(np.isfinite(aux.apply(r)))

    def test_indefinite_raises_after_retry(self):
        dense = np.diag([1.0, -100.0])
        m = SparseSymmetricMatrix.from_dense(dense)
        with pytest.raises(FactorizationError, match="not factorizable"):
            build_aux(m, "exact-dense")
        with pytest.raises(FactorizationError, match="not factorizable"):
            build_aux(m, "incomplete-cholesky", drop_tol=0.1)


class TestSparseIncompleteCholesky:
    """The sparse IC apply against dense triangular solves with the factor
    that `_incomplete_cholesky` forms."""

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
        lower = _incomplete_cholesky(m.to_dense() + aux.shift * np.eye(n),
                                     drop_tol)
        assert aux.nnz == np.count_nonzero(lower)
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
