"""Structured low-rank preconditioner: recursions, column administration
and update decisions."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from almprec import structured
from almprec.auxprecond import KINDS, build_aux
from almprec.bench import materialize
from almprec.sparse import SparseSymmetricMatrix
from almprec.structured import (LABEL_BFGS_W, LABEL_BFGS_Y, BStore,
                                ColumnSet, DenominatorBreakdownError,
                                StructuredPrecond, assemble_B,
                                build_column_set, decide_update)


def spd_matrix(rng, n):
    a = rng.standard_normal((n, n))
    return SparseSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n))


def dense_target(m, cols):
    """M + sum_i s_i v_i v_i' assembled densely."""
    dense = m.to_dense()
    for i in range(cols.m):
        v = cols.columns[:, i]
        dense = dense + cols.signs[i] * np.outer(v, v)
    return dense


class TestRank1:
    """The rank-1 case, (M + rho v v')^-1: a one-column set."""

    def test_matches_dense_inverse_with_exact_aux(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            m = spd_matrix(rng, n)
            aux = build_aux(m, "exact")
            v = rng.standard_normal(n)
            rho = float(10.0 ** rng.uniform(-2, 4))
            r = rng.standard_normal(n)
            cols = ColumnSet(n, np.sqrt(rho) * v[:, None], [1.0], [0])
            got = StructuredPrecond(aux, cols).apply(r)
            want = np.linalg.solve(m.to_dense() + rho * np.outer(v, v), r)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


class TestStorageRecursion:
    def test_matches_dense_inverse_with_exact_aux(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            k = int(rng.integers(1, min(n, 6) + 1))
            m = spd_matrix(rng, n)
            aux = build_aux(m, "exact")
            cols = ColumnSet(n, rng.standard_normal((n, k)), np.ones(k),
                             list(range(k)))
            r = rng.standard_normal(n)
            got = StructuredPrecond(aux, cols).apply(r)
            want = np.linalg.solve(dense_target(m, cols), r)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_mixed_signs_match_dense_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 10
            m = spd_matrix(rng, n)
            aux = build_aux(m, "exact")
            # Keep the subtractive terms small enough to stay SPD.
            cols_mat = rng.standard_normal((n, 4))
            cols_mat[:, 3] *= 0.1
            signs = np.array([1.0, 1.0, 1.0, -1.0])
            cols = ColumnSet(n, cols_mat, signs, list(range(4)))
            r = rng.standard_normal(n)
            want = np.linalg.solve(dense_target(m, cols), r)
            np.testing.assert_allclose(StructuredPrecond(aux, cols).apply(r),
                                       want, rtol=1e-8, atol=1e-10)

    def test_single_column_agrees_with_rank1(self):
        """With an inexact auxiliary Q, one column gives the inverse of
        the rank-1 update Q^-1 + rho v v'."""
        rng = np.random.default_rng(5)
        n = 12
        m = spd_matrix(rng, n)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=0.1)
        v = rng.standard_normal(n)
        rho = 7.5
        r = rng.standard_normal(n)
        cols = ColumnSet(n, (np.sqrt(rho) * v).reshape(n, 1), [1.0], [0])
        want = np.linalg.solve(
            np.linalg.inv(materialize(aux.apply, n)) + rho * np.outer(v, v),
            r)
        np.testing.assert_allclose(StructuredPrecond(aux, cols).apply(r),
                                   want, rtol=1e-12)

    def test_column_order_invariance_of_result(self):
        rng = np.random.default_rng(6)
        n, k = 9, 4
        m = spd_matrix(rng, n)
        aux = build_aux(m, "exact")
        cols = ColumnSet(n, rng.standard_normal((n, k)), np.ones(k),
                         list(range(k)))
        perm = [2, 0, 3, 1]
        r = rng.standard_normal(n)
        np.testing.assert_allclose(
            StructuredPrecond(aux, cols).apply(r),
            StructuredPrecond(aux, cols.permuted(perm)).apply(r),
            rtol=1e-10)

    def test_empty_column_set(self):
        rng = np.random.default_rng(7)
        n = 5
        m = spd_matrix(rng, n)
        aux = build_aux(m, "exact")
        cols = ColumnSet(n, np.zeros((n, 0)), np.zeros(0), [])
        r = rng.standard_normal(n)
        np.testing.assert_allclose(StructuredPrecond(aux, cols).apply(r),
                                   aux.apply(r))

    def test_breakdown_names_column(self):
        # M = I, subtractive unit column -> denominator 1 - v'v = 0.
        n = 4
        m = SparseSymmetricMatrix.from_dense(np.eye(n))
        aux = build_aux(m, "exact")
        v = np.zeros(n)
        v[0] = 1.0
        cols = ColumnSet(n, v.reshape(n, 1), [-1.0], ["culprit"])
        with pytest.raises(DenominatorBreakdownError) as exc:
            assemble_B(aux, cols)
        assert exc.value.label == "culprit"

    def test_breakdown_on_later_column_names_it(self):
        # M = I: pivots 1 + 1, 1 + 1, then 1 - 1 = 0 on the third column.
        n = 4
        m = SparseSymmetricMatrix.from_dense(np.eye(n))
        aux = build_aux(m, "exact")
        cols = ColumnSet(n, np.eye(n)[:, :3], [1.0, 1.0, -1.0],
                         ["e1", "e2", "e3"])
        with pytest.raises(DenominatorBreakdownError) as exc:
            assemble_B(aux, cols)
        assert exc.value.label == "e3"

    def test_factor_columns_match_dense_oracle(self):
        # IC is split, so b = L_Q^-1 W L^-T, and column i of L_Q^-T b is
        # P_{i-1}^-1 v_i, with P_{i-1} the inverse of the materialised
        # auxiliary Q plus the columns before i.
        rng = np.random.default_rng(16)
        n = 10
        m = spd_matrix(rng, n)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=0.1)
        q = aux.apply(np.eye(n))
        v = rng.standard_normal((n, 5))
        v[:, [1, 4]] *= 0.1
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        cols = ColumnSet(n, v, signs, list(range(5)))
        bs = assemble_B(aux, cols)
        b = aux.apply(bs.b, half="backward")
        p_prev = np.linalg.inv(q)
        for i in range(5):
            np.testing.assert_allclose(
                b[:, i], np.linalg.solve(p_prev, v[:, i]), rtol=1e-10)
            np.testing.assert_allclose(
                bs.denoms[i], 1.0 + signs[i] * (v[:, i] @ b[:, i]),
                rtol=1e-10)
            p_prev = p_prev + signs[i] * np.outer(v[:, i], v[:, i])

    def test_structured_precond_bundle(self):
        rng = np.random.default_rng(10)
        n = 7
        m = spd_matrix(rng, n)
        aux = build_aux(m, "exact")
        cols = ColumnSet(n, rng.standard_normal((n, 2)), np.ones(2), [0, 1])
        sp = StructuredPrecond(aux, cols)
        r = rng.standard_normal(n)
        want = np.linalg.solve(dense_target(m, cols), r)
        np.testing.assert_allclose(sp.apply(r), want, rtol=1e-9)


class TestSpectrumIdentity:
    def test_preconditioned_spectrum_matches_corrected_rank1_form(self):
        # With Q = P_M^-1, E = Q M - I and upsilon = rho/(1 + rho v'Qv):
        # P^-1 H = I + (I - upsilon Q v v') E, so the two spectra agree for
        # any approximate auxiliary.
        rng = np.random.default_rng(11)
        for kind in ("jacobi", "incomplete-cholesky"):
            for _ in range(10):
                n = 12
                m = spd_matrix(rng, n)
                aux = build_aux(m, kind,
                                0.2 if kind == "incomplete-cholesky"
                                else None)
                v = rng.standard_normal(n)
                rho = float(10.0 ** rng.uniform(-1, 3))
                q = np.column_stack([aux.apply(col) for col in np.eye(n)])
                dense_m = m.to_dense()
                e = q @ dense_m - np.eye(n)
                ups = rho / (1.0 + rho * float(v @ (q @ v)))
                rhs = (np.eye(n)
                       + (np.eye(n) - ups * np.outer(q @ v, v)) @ e)

                cols = ColumnSet(n, (np.sqrt(rho) * v).reshape(n, 1),
                                 [1.0], [0])
                sp = StructuredPrecond(aux, cols)
                h = dense_m + rho * np.outer(v, v)
                lhs = np.column_stack([sp.apply(h[:, j])
                                       for j in range(n)])
                lam_lhs = np.sort(np.linalg.eigvals(lhs).real)
                lam_rhs = np.sort(np.linalg.eigvals(rhs).real)
                np.testing.assert_allclose(lam_lhs, lam_rhs,
                                           rtol=1e-8, atol=1e-8)


class TestExactRefinement:
    # Bounds on ||r - H P^-1 r|| / ||r|| with r = H x, set at 10x the worst
    # value over seeds 0-99 of this set-up, both kinds, for the column-by-
    # column Sherman-Morrison recursion (6.5e-15 up to rho=1e6, then
    # 2.3e-14, 1.5e-12, 1.6e-10, 1.9e-8).  The capacitance form, with c'a
    # formed as L^-1 (V'a), read over seeds 0-99 3.2e-15 up to rho=1e6,
    # then 2.3e-14, 2.0e-12, 1.7e-10, 1.9e-8 (7.8e-14, 9.7e-12, 6.5e-10,
    # 4.4e-8 with c = V L^-T formed whole) with K factored by an m-step
    # loop.  With K's Cholesky from LAPACK it reads 3.8e-15, 1.3e-13,
    # 7.1e-12, 2.5e-10, 2.3e-8; on this test's seeds 0-4 it stays 15x or
    # more below each bound up to rho=1e9 and 9.5x at rho=1e10 (2.1e-8).
    # With the Woodbury apply as one correction step on the stored b,
    # Qr - b D^-1 (b'r), it reads 4.6e-15, 8.1e-14, 7.6e-12, 4.0e-10,
    # 3.4e-8; on seeds 0-4 it stays 12x or more below each bound up to
    # rho=1e9 and 7.4x at rho=1e10 (2.7e-8).
    # Unrefined it reaches 1e-12 at rho=1e2, so from rho=1e2 on these
    # bounds fail without refinement.
    FLOOR = {1e0: 1e-13, 1e1: 1e-13, 1e2: 1e-13, 1e3: 1e-13, 1e4: 1e-13,
             1e5: 1e-13, 1e6: 1e-13, 1e7: 3e-13, 1e8: 2e-11, 1e9: 2e-9,
             1e10: 2e-7}

    @pytest.mark.parametrize("kind", ["jacobi", "exact"])
    def test_residual_floor_over_rho_sweep(self, kind):
        n, k = 50, 3
        worst = {}
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if kind == "jacobi":
                dense = np.diag(rng.uniform(0.5, 50.0, n))
            else:
                a = rng.standard_normal((n, n))
                dense = a @ a.T / n + np.eye(n)
            m = SparseSymmetricMatrix.from_dense(dense)
            aux = build_aux(m, kind)
            assert aux.inverts is m
            v = rng.standard_normal((n, k))
            for rho, bound in self.FLOOR.items():
                sp = StructuredPrecond(
                    aux, ColumnSet(n, np.sqrt(rho) * v, np.ones(k),
                                   list(range(k))))
                for _ in range(5):
                    x = rng.standard_normal(n)
                    r = dense @ x + rho * v @ (v.T @ x)
                    h = sp.apply(r)
                    res = r - dense @ h - rho * v @ (v.T @ h)
                    rel = np.linalg.norm(res) / np.linalg.norm(r)
                    worst[rho] = max(worst.get(rho, 0.0), rel)
        over = {rho: w for rho, w in worst.items() if w > self.FLOOR[rho]}
        assert not over, over

    def test_inexact_auxiliary_apply_is_unrefined(self):
        # One auxiliary pass per structured apply, a whole apply or, for a
        # split auxiliary, its forward and its backward half; an exact
        # auxiliary adds a second pass for its refinement step.
        rng = np.random.default_rng(14)
        n = 12
        m = spd_matrix(rng, n)
        singular = SparseSymmetricMatrix.from_dense(np.ones((n, n)))
        diagonal = SparseSymmetricMatrix.from_dense(
            np.diag(rng.uniform(1.0, 5.0, n)))
        inexact = [build_aux(m, "jacobi"),
                   build_aux(m, "incomplete-cholesky", drop_tol=0.1),
                   build_aux(singular, "exact"),
                   build_aux(singular, "incomplete-cholesky", drop_tol=0.0)]
        exact = [build_aux(diagonal, "jacobi"),
                 build_aux(m, "exact"),
                 build_aux(m, "incomplete-cholesky", drop_tol=0.0)]
        assert [aux.inverts for aux in inexact] == [None] * 4
        assert all(aux.inverts is not None for aux in exact)
        assert inexact[2].shift > 0.0 and inexact[3].shift > 0.0
        for aux in inexact + exact:
            cols = ColumnSet(n, 1e3 * rng.standard_normal((n, 3)),
                             np.ones(3), [0, 1, 2])
            sp = StructuredPrecond(aux, cols)
            calls = []
            apply = aux.apply
            aux.apply = (lambda r, half=None:
                         calls.append(half) or apply(r, half=half))
            sp.apply(rng.standard_normal(n))
            one_pass = ["forward", "backward"] if aux.split else [None]
            assert calls == one_pass * (1 if aux.inverts is None else 2)


class TestColumnSet:
    def test_count_consistency_enforced(self):
        with pytest.raises(ValueError, match="agree in count"):
            ColumnSet(3, np.ones((3, 2)), [1.0], [0, 1])

    def test_sign_values_enforced(self):
        with pytest.raises(ValueError, match="signs"):
            ColumnSet(2, np.ones((2, 1)), [0.5], [0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct; 'a' repeats"):
            ColumnSet(2, np.eye(2), [1.0, 1.0], ["a", "a"])
        with pytest.raises(ValueError, match="distinct"):
            ColumnSet(2, np.ones((2, 3)), [1.0, -1.0, 1.0],
                      [0, LABEL_BFGS_Y, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_columns_must_be_finite(self, bad):
        given = np.ones((3, 2))
        given[1, 1] = bad
        with pytest.raises(ValueError, match="columns must be finite"):
            ColumnSet(3, given, [1.0, 1.0], [0, 1])

    def test_finite_columns_whose_sum_overflows_are_accepted(self):
        given = np.full((3, 2), 1e308)
        assert ColumnSet(3, given, [1.0, 1.0], [0, 1]).m == 2

    @pytest.mark.parametrize("n", [True, False])
    def test_a_bool_order_is_rejected(self, n):
        # A bool is an int: True would read as n = 1.
        with pytest.raises(ValueError, match="^n must be an integer"):
            ColumnSet(n, np.ones((1, 1)), [1.0], [0])

    def test_product_is_the_low_rank_term(self):
        rng = np.random.default_rng(32)
        v = rng.standard_normal((5, 3))
        cols = ColumnSet(5, v, [1.0, -1.0, 1.0], [0, 1, 2])
        dense = v @ np.diag(cols.signs) @ v.T
        x, block = rng.standard_normal(5), rng.standard_normal((5, 2))
        np.testing.assert_allclose(cols.product(x), dense @ x, rtol=1e-13)
        np.testing.assert_allclose(cols.product(block), dense @ block,
                                   rtol=1e-13)
        empty = ColumnSet(5, np.zeros((5, 0)), [], [])
        assert empty.product(x).tobytes() == np.zeros(5).tobytes()

    def test_without_labels(self):
        cols = ColumnSet(2, np.eye(2), [1.0, 1.0], ["a", "b"])
        kept = cols.without_labels(("a",))
        assert kept.labels == ("b",)
        assert kept.m == 1

    @pytest.mark.parametrize("named", [LABEL_BFGS_Y, LABEL_BFGS_W])
    def test_naming_either_secant_column_drops_both(self, named):
        given = np.arange(12.0).reshape(3, 4)
        cols = ColumnSet(3, given, [1.0, 1.0, 1.0, -1.0],
                         [0, 1, LABEL_BFGS_Y, LABEL_BFGS_W])
        kept = cols.without_labels((named,))
        assert kept.labels == (0, 1)
        assert kept.columns.tobytes() == np.asfortranarray(
            given[:, :2]).tobytes()
        assert cols.without_labels((0,)).labels == (1, LABEL_BFGS_Y,
                                                    LABEL_BFGS_W)

    def test_columns_and_signs_are_read_only(self):
        cols = ColumnSet(2, np.eye(2), [1.0, -1.0], ["a", "b"])
        with pytest.raises(ValueError, match="read-only"):
            cols.columns[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            cols.signs[0] = -1.0

    def test_transposed_columns_rejected(self):
        # Reshaped to (4, -1), the rows of v.T would be stored as
        # [0 2] [4 6] [1 3] [5 7].
        v = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=r"n = 4, got shape \(2, 4\)"):
            ColumnSet(4, v.T, [1.0, 1.0], [0, 1])

    @pytest.mark.parametrize("columns, k", [
        (np.ones(4), 1), (np.ones((4, 1, 1)), 1), (np.ones((3, 1)), 1),
        (np.ones((8, 1)), 1), ([], 0)],
        ids=["1-d", "3-d", "short", "long", "empty-list"])
    def test_columns_must_have_n_rows(self, columns, k):
        with pytest.raises(ValueError, match="got shape"):
            ColumnSet(4, columns, [1.0] * k, list(range(k)))

    def test_no_columns_is_a_valid_set(self):
        cols = ColumnSet(4, np.zeros((4, 0)), [], [])
        assert cols.m == 0 and cols.columns.shape == (4, 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_constructor_copies_the_callers_array(self, order):
        given = np.array(np.arange(10.0).reshape(5, 2), order=order)
        cols = ColumnSet(5, given, [1.0, -1.0], ["a", "b"])
        assert not np.shares_memory(cols.columns, given)
        assert given.flags.writeable and not cols.columns.flags.writeable
        given[0, 0] = 7.0
        assert cols.columns[0, 0] == 0.0

    def test_dropping_a_label_copies_once_and_freezes(self):
        cols = ColumnSet(3, np.arange(6.0).reshape(3, 2), [1.0, -1.0],
                         ["a", "b"])
        kept = cols.without_labels(("a",))
        assert kept.columns.tolist() == [[1.0], [3.0], [5.0]]
        assert not np.shares_memory(kept.columns, cols.columns)
        assert not kept.columns.flags.writeable


    @pytest.mark.parametrize("kind", ["incomplete-cholesky", "exact"])
    def test_caller_mutation_leaves_preconditioner_unchanged(self, kind):
        rng = np.random.default_rng(15)
        n = 8
        m = spd_matrix(rng, n)
        aux = build_aux(m, kind, 0.0 if kind == "incomplete-cholesky"
                        else None)
        v = rng.standard_normal((n, 3))
        signs = np.ones(3)
        sp = StructuredPrecond(aux, ColumnSet(n, v, signs, [0, 1, 2]))
        r = rng.standard_normal(n)
        before = sp.apply(r)
        v *= 10.0
        signs[0] = -1.0
        np.testing.assert_array_equal(sp.apply(r), before)


class TestBuiltColumnOwnership:
    """A set from build_column_set keeps the array that the build
    gathered: read-only, and sharing no memory with the inputs."""

    @pytest.mark.parametrize("free", [None, np.array([0, 2, 3, 5])],
                             ids=["full", "free"])
    @pytest.mark.parametrize("with_secant", [False, True],
                             ids=["plain", "secant"])
    def test_read_only_and_unshared(self, free, with_secant):
        rng = np.random.default_rng(30)
        n, m = 6, 3
        jac = rng.standard_normal((n, m))
        s = rng.standard_normal(n)
        secant = (s, 2.0 * s, 3.0 * s) if with_secant else None
        cols = build_column_set(jac, np.ones(m, dtype=bool),
                                rng.standard_normal(m), np.zeros(m), 10.0,
                                secant=secant, free=free)
        assert cols.m == m + 2 * with_secant
        with pytest.raises(ValueError, match="read-only"):
            cols.columns[0, 0] = 1.0
        for given in (jac, *(secant or ())):
            assert not np.shares_memory(cols.columns, given)
        # Full and restricted sets alike are column-major.
        assert cols.columns.flags.f_contiguous

    def test_dropped_restricted_column_keeps_the_layout(self):
        jac = np.zeros((5, 3))
        jac[0, 1] = 1.0
        jac[:, [0, 2]] = np.arange(10.0).reshape(5, 2)
        cols = build_column_set(jac, np.ones(3, dtype=bool), np.ones(3),
                                np.zeros(3), 4.0, free=np.arange(1, 5))
        # Column 1 is zero on the free rows, and kept: the set is the full
        # one cut down.  Dropped by label, it leaves a column-major set.
        assert cols.labels == (2, 0, 1)
        cols = cols.without_labels((1,))
        assert cols.labels == (2, 0)
        assert cols.columns.flags.f_contiguous
        assert cols.columns.strides == (8, 32)
        assert not cols.columns.flags.writeable


class TestOneLayout:
    """Every set stores its columns column-major, however it was made, so
    a set's products do not depend on how it was made."""

    @pytest.mark.parametrize("given", [
        np.arange(12.0).reshape(4, 3),
        np.asfortranarray(np.arange(12.0).reshape(4, 3)),
        np.arange(12.0).reshape(4, 3).tolist(),
        np.arange(24.0).reshape(4, 6)[:, ::2]], ids=["C", "F", "list",
                                                      "strided"])
    def test_constructor_stores_column_major(self, given):
        cols = ColumnSet(4, given, [1.0, -1.0, 1.0], ["a", "b", "c"])
        assert cols.columns.flags.f_contiguous
        np.testing.assert_array_equal(cols.columns, np.asarray(given))

    def test_dropping_a_label_stays_column_major(self):
        cols = ColumnSet(5, np.arange(15.0).reshape(5, 3),
                         [1.0, -1.0, 1.0], ["a", "b", "c"])
        kept = cols.without_labels(("b",))
        assert kept.columns.flags.f_contiguous
        assert kept.columns.strides == (8, 40)

    @pytest.mark.parametrize("drop", [0, 3, 6])
    def test_dropped_label_products_match_a_set_built_without_it(self,
                                                                 drop):
        # BLAS products round by layout: a set left after a drop must
        # multiply bit for bit as one built without the column, here an
        # inequality that is inactive.
        rng = np.random.default_rng(32)
        n, k = 300, 7
        jac = rng.standard_normal((n, k))
        c_vals = np.arange(1.0, k + 1.0)
        equality = np.ones(k, dtype=bool)
        dropped = build_column_set(jac, equality, c_vals, np.zeros(k),
                                   10.0).without_labels((drop,))
        equality[drop], c_vals[drop] = False, -1.0
        built = build_column_set(jac, equality, c_vals, np.zeros(k), 10.0)
        assert dropped.labels == built.labels and drop not in built.labels
        x, y = rng.standard_normal(n), rng.standard_normal(k - 1)
        xs, ys = rng.standard_normal((n, 4)), rng.standard_normal((k - 1, 4))
        for a, b in ((dropped.columns.T @ x, built.columns.T @ x),
                     (dropped.columns @ y, built.columns @ y),
                     (dropped.columns.T @ xs, built.columns.T @ xs),
                     (dropped.columns @ ys, built.columns @ ys)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ["C", "F"])
def test_assemble_b_leaves_the_columns_alone(kind, order):
    # b is formed in place of the auxiliary's W, which must not be the
    # set's own array, whatever the layout the caller passed.
    rng = np.random.default_rng(31)
    n, k = 8, 3
    cols = ColumnSet(n, np.array(rng.standard_normal((n, k)), order=order),
                     [1.0, -1.0, 1.0], [0, 1, 2])
    before = cols.columns.copy(order="K")
    bs = assemble_B(build_aux(spd_matrix(rng, n), kind, 0.1), cols)
    assert cols.columns.tobytes(order="A") == before.tobytes(order="A")
    assert cols.columns.strides == before.strides
    assert not np.shares_memory(bs.b, cols.columns)

EQ = (True,)
IN = (False,)


def _loop_column_set(jacobian, equality, c_vals, multipliers, rho):
    """Labels and columns of the per-constraint loop that build_column_set
    replaced, kept as its reference."""
    kept = []
    for i in range(jacobian.shape[1]):
        if equality[i]:
            infeas = abs(float(c_vals[i]))
        else:
            if multipliers[i] + rho * c_vals[i] <= 0.0:
                continue
            infeas = max(0.0, float(c_vals[i]))
        norm = float(np.linalg.norm(jacobian[:, i]))
        if norm <= structured.EPS_V and infeas <= structured.EPS_C:
            continue
        kept.append((i, infeas, norm))
    kept.sort(key=lambda t: (-t[1], -t[2], t[0]))
    labels = [i for i, _, _ in kept]
    columns = [np.sqrt(rho) * jacobian[:, i] for i in labels]
    return (tuple(labels), np.column_stack(columns) if columns
            else np.zeros((jacobian.shape[0], 0)))


class TestBuildColumnSet:
    def test_equality_always_kept(self):
        cols = build_column_set([[1.0], [0.0]], EQ, [0.0], [0.0], 2.0)
        assert cols.m == 1
        np.testing.assert_allclose(cols.columns[:, 0],
                                   np.sqrt(2.0) * np.array([1.0, 0.0]))

    def test_inactive_inequality_dropped(self):
        # mu + rho c <= 0 -> inactive.
        cols = build_column_set([[1.0], [0.0]], IN, [-1.0], [0.0], 2.0)
        assert cols.m == 0

    def test_active_inequality_kept(self):
        cols = build_column_set([[1.0], [0.0]], IN, [0.5], [0.0], 2.0)
        assert cols.m == 1

    @pytest.mark.parametrize("free", [None, np.array([0, 2])],
                             ids=["full", "free"])
    def test_a_kept_column_must_be_finite(self, free):
        jac = np.ones((3, 2))
        jac[2, 1] = np.nan
        with pytest.raises(ValueError, match="columns must be finite"):
            build_column_set(jac, EQ * 2, [1.0, 1.0], [0.0, 0.0], 2.0,
                             free=free)

    def test_a_relaxable_column_must_be_finite(self):
        # Column 1 is active (1 + rho * 0 > 0) and feasible, so the
        # relaxation test would drop it for its norm if NaN passed it.
        with pytest.raises(ValueError, match="columns must be finite"):
            build_column_set([[1.0, np.nan], [0.0, 1.0]], IN * 2,
                             [0.5, 0.0], [1.0, 1.0], 2.0)

    def test_only_the_rows_kept_are_checked(self):
        jac = np.ones((3, 2))
        jac[1, 1] = np.nan
        cols = build_column_set(jac, EQ * 2, [1.0, 1.0], [0.0, 0.0], 2.0,
                                free=np.array([0, 2]))
        assert np.isfinite(cols.columns).all()

    def test_scaled_columns_must_be_finite(self):
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="columns must be finite"):
            build_column_set([[1e300], [0.0]], EQ, [1.0], [0.0], 1e20,
                             norms=np.array([1e300]))

    def test_secant_columns_must_be_finite(self):
        s = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="columns must be finite"):
            build_column_set([[1.0], [0.0]], EQ, [1.0], [0.0], 2.0,
                             secant=(s, s, np.array([1.0, np.nan])))

    def test_finiteness_is_checked_once_per_build(self, monkeypatch):
        """One check of the gathered block; a set derived from a checked
        set (`permuted`, and `without_labels` through it) is not checked
        again."""
        checked = []
        check = structured._check_finite
        monkeypatch.setattr(structured, "_check_finite",
                            lambda a: checked.append(a.shape) or check(a))
        jac = np.zeros((4, 3))
        jac[0, 1] = 1.0
        jac[:, [0, 2]] = 1.0
        cols = build_column_set(jac, EQ * 3, [1.0] * 3, [0.0] * 3, 2.0,
                                free=np.arange(1, 4))
        assert cols.labels == (0, 2, 1)  # column 1 zero on the free rows
        assert checked == [(3, 3)]
        cols.permuted([1, 0])
        cols.without_labels((0,))
        assert checked == [(3, 3)]

    def test_relaxation_needs_both_small(self):
        tiny_grad = [[1e-4], [0.0]]
        # Small gradient but large infeasibility: kept.
        cols = build_column_set(tiny_grad, EQ, [1.0], [0.0], 1.0)
        assert cols.m == 1
        # Small gradient and small infeasibility: relaxed away.
        cols = build_column_set(tiny_grad, EQ, [1e-4], [0.0], 1.0)
        assert cols.m == 0

    def test_ordering_by_infeasibility_then_norm(self):
        jac = np.column_stack([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        cols = build_column_set(jac, EQ * 3, [0.5, 2.0, 0.5], [0.0] * 3,
                                1.0)
        # Highest infeasibility first, then larger norm among ties.
        assert cols.labels == (1, 2, 0)

    def test_matches_the_per_constraint_loop(self):
        """Mixed kinds, tied infeasibilities and norms, relaxed columns:
        the same labels, in the same order, and the same column bytes."""
        rng = np.random.default_rng(16)
        for _ in range(50):
            n, m = 6, 12
            jac = rng.integers(-1, 2, (n, m)) * rng.choice([1.0, 1e-4], m)
            equality = rng.random(m) < 0.4
            c_vals = rng.choice([-1.0, -1e-4, 0.0, 1e-4, 0.5, 1.0], m)
            multipliers = rng.choice([0.0, 0.2, 1.0], m)
            rho = float(rng.choice([0.5, 1.0, 10.0]))
            cols = build_column_set(jac, equality, c_vals, multipliers, rho)
            labels, columns = _loop_column_set(jac, equality, c_vals,
                                               multipliers, rho)
            assert cols.labels == labels
            assert cols.columns.tobytes() == columns.tobytes()

    def test_dimension_from_jacobian_rows(self):
        cols = build_column_set(np.zeros((3, 0)), (), [], [], 1.0)
        assert cols.n == 3 and cols.columns.shape == (3, 0)

    def test_jacobian_must_be_n_by_m(self):
        with pytest.raises(ValueError, match="lengths disagree"):
            build_column_set(np.ones((1, 2)), EQ, [0.0], [0.0], 1.0)

    def test_secant_columns_appended_with_signs(self):
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 0.0])
        w = 3.0 * s
        cols = build_column_set(np.ones((2, 1)), EQ, [0.1], [0.0], 1.0,
                                secant=(s, y, w))
        assert cols.labels[-2:] == (LABEL_BFGS_Y, LABEL_BFGS_W)
        assert cols.signs[-2] == 1.0 and cols.signs[-1] == -1.0
        # y column scaled by sqrt(1/s'y), w column by sqrt(1/s'w).
        np.testing.assert_allclose(cols.columns[:, -2],
                                   y / np.sqrt(float(s @ y)))
        np.testing.assert_allclose(cols.columns[:, -1],
                                   w / np.sqrt(float(s @ w)))

    def test_secant_skipped_on_negative_curvature(self):
        s = np.array([1.0, 0.0])
        y = -s
        cols = build_column_set(np.ones((2, 1)), EQ, [0.1], [0.0], 1.0,
                                secant=(s, y, s))
        assert cols.m == 1

    def test_secant_correction_skipped_note(self):
        s = np.array([1.0, 0.0])
        y = s.copy()
        cols = build_column_set(np.ones((2, 1)), EQ, [0.1], [0.0], 1.0,
                                secant=(s, y, -s))
        assert "correction skipped" in cols.notes
        assert cols.m == 1

    def test_secant_pair_the_model_reproduces_is_left_out(self):
        # w = y: the BFGS update y y'/s'y - w w'/s'w is zero.
        s = np.array([1.0, 0.5])
        y = np.array([2.0, 0.5])
        cols = build_column_set(np.ones((2, 1)), EQ, [0.1], [0.0], 1.0,
                                secant=(s, y, y.copy()))
        assert cols.labels == (0,)
        assert cols.notes == ("secant reproduced",)

    def test_secant_pair_off_by_more_than_the_tolerance_is_kept(self):
        s = np.array([1.0, 0.5])
        y = np.array([2.0, 0.5])
        cols = build_column_set(np.ones((2, 1)), EQ, [0.1], [0.0], 1.0,
                                secant=(s, y, y * (1.0 + 1e-3)))
        assert cols.labels == (0, LABEL_BFGS_Y, LABEL_BFGS_W)
        assert cols.signs.tolist() == [1.0, 1.0, -1.0]
        assert cols.notes == ()

    def test_secant_columns_reproduce_bfgs_update(self):
        # M + y y'/s'y - w w'/s'w with w = H s is the standard two-term
        # correction; the assembled inverse must match it.
        rng = np.random.default_rng(12)
        n = 6
        m = spd_matrix(rng, n)
        h_dense = m.to_dense()
        s = rng.standard_normal(n)
        y = h_dense @ s + 0.3 * rng.standard_normal(n)
        if float(s @ y) <= 0:
            y = h_dense @ s
        w = h_dense @ s
        cols = build_column_set(np.zeros((n, 0)), (), [], [], 1.0,
                                secant=(s, y, w))
        aux = build_aux(m, "exact")
        sp = StructuredPrecond(aux, cols)
        target = (h_dense + np.outer(y, y) / float(s @ y)
                  - np.outer(w, w) / float(s @ w))
        r = rng.standard_normal(n)
        np.testing.assert_allclose(sp.apply(r),
                                   np.linalg.solve(target, r), rtol=1e-8)


def _peak_bytes(fn, *args, **kwargs):
    """Peak of the memory that fn(*args, **kwargs) allocates, result
    included."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestColumnMemory:
    """The column administration makes at most the copies it needs:
    n = 576, m = 20, one n x m float array is 92 kB."""
    n, m = 576, 20
    nm_bytes = 8 * n * m

    def test_full_build_column_set_peaks_below_one_and_a_half_arrays(self):
        # The set keeps the array that the build gathered, with or without
        # the secant pair; the build held 2.2 arrays while the set copied
        # it.
        rng = np.random.default_rng(20)
        jac = rng.standard_normal((self.n, self.m))
        equality = np.ones(self.m, dtype=bool)
        c_vals = rng.standard_normal(self.m)
        s = rng.standard_normal(self.n)
        for secant in (None, (s, 2.0 * s, 3.0 * s)):
            peak = _peak_bytes(build_column_set, jac, equality, c_vals,
                               np.zeros(self.m), 10.0, secant=secant)
            assert peak <= 1.5 * self.nm_bytes

    def _assembly_inputs(self, kind):
        n = self.n
        m = SparseSymmetricMatrix(
            n, np.concatenate((np.arange(n), np.arange(1, n))),
            np.concatenate((np.arange(n), np.arange(n - 1))),
            np.concatenate((np.full(n, 4.0), np.full(n - 1, -1.0))))
        aux = build_aux(m, kind, 1e-2)
        rng = np.random.default_rng(23)
        cols = ColumnSet(n, rng.standard_normal((n, self.m)),
                         np.ones(self.m), range(self.m))
        return aux, cols

    @pytest.mark.parametrize("kind", ["incomplete-cholesky", "exact"])
    def test_assemble_b_peaks_below_two_and_a_half_arrays(self, kind):
        # W and b share one array; the factored kinds return W
        # column-major, so dtrsm needs no copy of it.  With dtrsm copying
        # W and V, the peak was 3.1 arrays.
        aux, cols = self._assembly_inputs(kind)
        assert _peak_bytes(assemble_B, aux, cols) <= 2.5 * self.nm_bytes

    @pytest.mark.parametrize("kind", KINDS)
    def test_assemble_b_keeps_one_array(self, kind):
        # B keeps b, formed in place of W, and an m x m factor; every
        # kind returns W in the set's column-major layout, so dtrsm copies
        # nothing, and the floor takes the column norms without a
        # temporary.  With c = V L^-T kept beside b, B kept 2.0 arrays and
        # peaked at 2.1 to 3.1.
        aux, cols = self._assembly_inputs(kind)
        tracemalloc.start()
        try:
            bs = assemble_B(aux, cols)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bs.b.shape == (self.n, self.m)
        assert self.nm_bytes <= kept <= 1.1 * self.nm_bytes
        assert peak <= 1.5 * self.nm_bytes

    def test_decide_update_peaks_below_one_array(self):
        rng = np.random.default_rng(21)
        cols = [ColumnSet(self.n, rng.standard_normal((self.n, self.m)),
                          np.ones(self.m), range(self.m)) for _ in range(2)]
        m1 = SparseSymmetricMatrix(self.n, np.arange(self.n),
                                   np.arange(self.n), np.ones(self.n))
        m2 = SparseSymmetricMatrix(self.n, np.arange(self.n),
                                   np.arange(self.n), np.full(self.n, 2.0))
        peak = _peak_bytes(decide_update, m1, m2, cols[0], cols[1])
        assert peak < self.nm_bytes

    @pytest.mark.parametrize("free", [None, np.arange(0, 576, 2)],
                             ids=["full", "free"])
    def test_decide_update_on_built_sets_holds_a_few_columns(self, free):
        # Each shared column pair is read as two contiguous columns, and
        # the temporaries are per column.
        rng = np.random.default_rng(22)
        jac = rng.standard_normal((self.n, self.m))
        cols = [build_column_set(jac + shift, np.ones(self.m, dtype=bool),
                                 np.ones(self.m), np.zeros(self.m), 10.0,
                                 free=free)
                for shift in (0.0, 1e-3)]
        assert cols[0].m == self.m and cols[0].columns.flags.f_contiguous
        m1 = SparseSymmetricMatrix(self.n, np.arange(self.n),
                                   np.arange(self.n), np.ones(self.n))
        peak = _peak_bytes(decide_update, m1, m1, cols[0], cols[1])
        assert peak <= 3 * 8 * self.n


class TestDecideUpdate:
    def _cols(self, mat, labels):
        mat = np.asarray(mat, dtype=np.float64)
        return ColumnSet(mat.shape[0], mat, np.ones(mat.shape[1]), labels)

    def test_small_changes_keep_everything(self):
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        m2 = SparseSymmetricMatrix.from_dense(np.eye(3) * 1.01)
        c = self._cols(np.eye(3)[:, :2], [0, 1])
        assert decide_update(m1, m2, c, c) == "none"

    def test_m_change_forces_both(self):
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        m2 = SparseSymmetricMatrix.from_dense(np.eye(3) * 2.0)
        c = self._cols(np.eye(3)[:, :1], [0])
        assert decide_update(m1, m2, c, c) == "M-changed"

    def test_column_count_change_refreshes_b_only(self):
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        c1 = self._cols(np.eye(3)[:, :1], [0])
        c2 = self._cols(np.eye(3)[:, :2], [0, 1])
        assert decide_update(m1, m1, c1, c2) == "V-changed"

    def test_column_drift_refreshes_b(self):
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        c1 = self._cols(np.eye(3)[:, :1], [0])
        moved = np.eye(3)[:, :1] + 0.5
        c2 = self._cols(moved, [0])
        assert decide_update(m1, m1, c1, c2) == "V-changed"

    def test_bfgs_label_change_reports_forced(self):
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        c1 = self._cols(np.eye(3)[:, :1], [0])
        mat = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 1],
                               np.eye(3)[:, 2]])
        c2 = ColumnSet(3, mat, [1.0, 1.0, -1.0],
                       [0, LABEL_BFGS_Y, LABEL_BFGS_W])
        assert decide_update(m1, m1, c1, c2) == "forced-bfgs"

    def test_shared_labels_pair_by_label_not_position(self):
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        c1 = self._cols(np.eye(3), ["a", "b", "c"])
        c2 = self._cols(np.eye(3)[:, [2, 0, 1]], ["c", "a", "b"])
        assert decide_update(m1, m1, c1, c2) == "none"
        c3 = self._cols(np.eye(3), ["c", "a", "b"])
        assert decide_update(m1, m1, c1, c3) == "V-changed"

    def test_same_m_object_skips_the_norm(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("norm1_diff called")
        monkeypatch.setattr(structured, "norm1_diff", forbidden)
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        c = self._cols(np.eye(3)[:, :1], [0])
        assert decide_update(m1, m1, c, c) == "none"

    @pytest.mark.parametrize("new_m, width, want", [
        (2.0, 1, "M-changed"), (1.0, 2, "V-changed")])
    def test_columns_are_not_compared_once_the_reason_is_known(
            self, new_m, width, want):
        # After an M change or a count change, no column is read.
        class Unread:
            def __init__(self, width):
                self.m, self.labels = width, tuple(range(width))

            @property
            def columns(self):
                raise AssertionError("columns read")
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        m2 = SparseSymmetricMatrix.from_dense(new_m * np.eye(3))
        assert decide_update(m1, m2, Unread(1), Unread(width)) == want


    def test_the_held_set_itself_is_not_compared(self):
        # The same set as held and as new is "none" without a column
        # read, but only after the M test.
        class Unread:
            m, labels = 1, (0,)

            @property
            def columns(self):
                raise AssertionError("columns read")
        v = Unread()
        m1 = SparseSymmetricMatrix.from_dense(np.eye(3))
        m2 = SparseSymmetricMatrix.from_dense(2.0 * np.eye(3))
        assert decide_update(m1, m1, v, v) == "none"
        assert decide_update(m1, m2, v, v) == "M-changed"


def _held_case():
    """(build, held): build(**changes) runs build_column_set on a 6 x 4
    Jacobian, two equalities and two active inequalities, restricted to a
    free set, with `changes` replacing any argument; held is the set it
    builds unchanged."""
    jac = np.random.default_rng(31).standard_normal((6, 4))
    args = dict(jacobian=jac, equality=np.array([True, True, False, False]),
                c_vals=np.array([0.5, -0.2, 0.3, 0.4]),
                multipliers=np.zeros(4), rho=10.0,
                free=np.array([0, 2, 3, 5]))

    def build(**changes):
        return build_column_set(**{**args, **changes})
    return build, build()


def _same_set(a, b):
    return (a.labels == b.labels and a.notes == b.notes
            and a.columns.tobytes() == b.columns.tobytes()
            and a.signs.tobytes() == b.signs.tobytes())


def _secant(w_scale):
    """(s, y, w) that pass the curvature test; w = w_scale * y."""
    s = np.linspace(1.0, 2.0, 6)
    y = s + np.cos(np.arange(6.0))
    return s, y, w_scale * y


class TestHeldSet:
    """build_column_set hands back the held set when the kept labels and
    the notes are those of the new set and neither carries the secant
    pair, and builds anew on any single change of these.  That the held
    set was gathered from the same Jacobian, rho and free set is the
    caller's to vouch for (TestHeldColumnReuse in test_alm)."""

    def test_held_set_is_returned_when_nothing_moved(self):
        build, held = _held_case()
        # Other infeasibilities reorder the columns but keep the labels;
        # the held order stays.
        reordered = np.array([0.1, -0.9, 0.8, 0.2])
        assert build(c_vals=reordered).labels != held.labels
        assert build(c_vals=reordered, held=held) is held
        assert build(held=held) is held
        # A note both builds make is equal.
        noted = build(secant=_secant(-1.0))
        assert noted.notes == ("correction skipped",)
        assert build(secant=_secant(-1.0), held=noted) is noted

    def test_the_held_set_keeps_no_jacobian_alive(self):
        # A problem may return a fresh read-only Jacobian per call: a set
        # kept in a preconditioner must not pin the old one.
        jac = np.ones((3, 2))
        jac.flags.writeable = False
        ref = weakref.ref(jac)
        cols = build_column_set(jac, EQ * 2, [1.0, 1.0], [0.0, 0.0], 2.0)
        del jac
        assert ref() is None and cols.m == 2

    def test_a_set_after_a_column_drop_is_not_returned(self):
        # The manager holds a set without the columns its assembly
        # dropped (`without_labels`); its labels are not the new set's.
        build, held = _held_case()
        dropped = held.without_labels(held.labels[:1])
        assert build(held=dropped) is not dropped
        assert _same_set(build(held=dropped), held)

    @pytest.mark.parametrize("change", ["labels", "notes", "secant"])
    def test_any_single_change_builds_a_new_set(self, change):
        build, held = _held_case()
        changes = {
            "labels": dict(c_vals=np.array([0.5, -0.2, 0.3, -1.0])),
            "notes": dict(secant=_secant(-1.0)),
            "secant": dict(secant=_secant(0.5)),
        }[change]
        want = build(**changes)
        got = build(held=held, **changes)
        assert got is not held
        assert _same_set(got, want)
        if change == "secant":
            # A set that carries the pair is not reused either.
            assert LABEL_BFGS_Y in got.labels
            assert build(held=got, **changes) is not got


def test_bstore_fields():
    rng = np.random.default_rng(13)
    m = spd_matrix(rng, 4)
    aux = build_aux(m, "exact")
    cols = ColumnSet(4, rng.standard_normal((4, 2)), np.ones(2), [0, 1])
    bs = assemble_B(aux, cols)
    assert isinstance(bs, BStore)
    # The Sherman-Morrison form alone: no apply reads K's factor.
    assert [f.name for f in dataclasses.fields(bs)] == ["b", "denoms",
                                                        "weights"]
    assert bs.b.shape == (4, 2) and bs.denoms.shape == (2,)


def test_bstore_weights_are_the_signs_over_the_denominators():
    rng = np.random.default_rng(14)
    m = spd_matrix(rng, 6)
    aux = build_aux(m, "incomplete-cholesky", drop_tol=0.1)
    cols = ColumnSet(6, rng.standard_normal((6, 3)), [1.0, -1.0, 1.0],
                     [0, 1, 2])
    sp = StructuredPrecond(aux, cols)
    bs = sp.bs
    assert bs.weights.tobytes() == (cols.signs / bs.denoms).tobytes()
    # The split apply is the Woodbury form with the signs divided per
    # apply, c = V L^-T formed here from the set's columns and the oracle's
    # factor of K, and the Woodbury b from B's split one, L_Q^-T b.
    c = solve_triangular(_capacitance_lower(aux, cols), cols.columns.T,
                         lower=True, unit_diagonal=True).T
    b = _woodbury_b(aux, bs)
    r = rng.standard_normal(6)
    a = aux.apply(r)
    want = a - b @ (cols.signs / bs.denoms * (c.T @ a))
    h = sp.apply(r)
    assert np.linalg.norm(h - want) <= 1e-12 * np.linalg.norm(want)


def _capacitance_lower(aux, cols):
    """The unit lower triangular L of the textbook L D L' of the
    capacitance matrix K = S + V'QV of `cols`, formed densely: K = S + Y'Y,
    Y = L_Q^-1 V, for a split auxiliary, else S + V'W, W = QV,
    symmetrised, as `assemble_B` forms it."""
    v = cols.columns
    if aux.split:
        y = aux.apply(v, half="forward")
        k = y.T @ y
    else:
        k = v.T @ aux.apply(v)
        k = 0.5 * (k + k.T)
    return _dense_ldlt(k + np.diag(cols.signs),
                       structured._denom_floor(v))[0]


def _woodbury_b(aux, bs):
    """B's b in the Woodbury form, W L^-T: a split auxiliary's b taken
    back by L_Q^-T."""
    return aux.apply(bs.b, half="backward") if aux.split else bs.b


def _woodbury_with_c(sp, r):
    """The apply with c = V L^-T formed as a whole n x m array, from the
    oracle's factor of K, as the apply was written before it formed c'a
    from the columns, refined once when the auxiliary inverts M."""
    v, bs, aux = sp.cols.columns, sp.bs, sp.aux
    c = solve_triangular(_capacitance_lower(aux, sp.cols), v.T, lower=True,
                         unit_diagonal=True).T
    b = _woodbury_b(aux, bs)

    def once(x):
        a = aux.apply(x)
        return a - b @ (bs.weights * (c.T @ a))
    h = once(r)
    if aux.inverts is not None:
        h = h + once(r - aux.inverts.matvec(h)
                     - v @ (sp.cols.signs * (v.T @ h)))
    return h


# (kind, drop tolerance, diagonal M): the last three invert M exactly, so
# their apply takes the refinement step.
APPLY_CASES = [(kind, 0.1, False) for kind in KINDS] + [
    ("jacobi", None, True), ("incomplete-cholesky", 0.0, False)]


def _structured_case(kind, drop_tol, diagonal, seed, n=40, k=4):
    rng = np.random.default_rng(seed)
    m = (SparseSymmetricMatrix.from_dense(np.diag(rng.uniform(1.0, 9.0, n)))
         if diagonal else spd_matrix(rng, n))
    aux = build_aux(m, kind, drop_tol)
    cols = ColumnSet(n, 3.0 * rng.standard_normal((n, k)),
                     np.where(np.arange(k) == 1, -1.0, 1.0), range(k))
    return StructuredPrecond(aux, cols), rng


@pytest.mark.parametrize("kind, drop_tol, diagonal", APPLY_CASES)
def test_apply_matches_the_woodbury_form_with_c(kind, drop_tol, diagonal):
    for seed in range(5):
        sp, rng = _structured_case(kind, drop_tol, diagonal, 40 + seed)
        assert (sp.aux.inverts is not None) == (
            kind == "exact" or diagonal or drop_tol == 0.0)
        r = rng.standard_normal(sp.cols.n)
        want = _woodbury_with_c(sp, r)
        assert (np.linalg.norm(sp.apply(r) - want)
                <= 1e-12 * np.linalg.norm(want))


@pytest.mark.parametrize("kind, drop_tol, diagonal", APPLY_CASES)
def test_apply_makes_no_solve_with_the_capacitance_factor(
        kind, drop_tol, diagonal, monkeypatch):
    # Both forms are one correction step on the stored b: L is used only
    # while B is assembled.
    sp, rng = _structured_case(kind, drop_tol, diagonal, 45)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("triangular solve in the apply")
    monkeypatch.setattr(structured, "dtrsm", forbidden)
    n = sp.cols.n
    for r in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        assert sp.apply(r).shape == r.shape


@pytest.mark.parametrize("kind, drop_tol, diagonal", APPLY_CASES)
@pytest.mark.parametrize("k", [0, 4])
def test_block_apply_matches_the_columnwise_apply(kind, drop_tol, diagonal,
                                                  k):
    sp, rng = _structured_case(kind, drop_tol, diagonal, 50, k=k)
    n = sp.cols.n
    for block in (rng.standard_normal((n, 6)),
                  np.asfortranarray(rng.standard_normal((n, 6))),
                  rng.standard_normal((n, 1)), np.eye(n)):
        got = sp.apply(block)
        assert got.shape == block.shape
        want = np.column_stack([sp.apply(block[:, j])
                                for j in range(block.shape[1])])
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-14 * np.abs(want).max())



def _dense_ldlt(k, floors):
    """The textbook unpivoted L D L' of the symmetric k as (L, D), or the
    index of the first pivot below its floor."""
    k = np.array(k, dtype=np.float64)
    lower = np.eye(k.shape[0])
    for i in range(k.shape[0]):
        if abs(k[i, i]) < floors[i]:
            return i
        lower[i + 1:, i] = k[i + 1:, i] / k[i, i]
        k[i + 1:, i + 1:] -= np.outer(lower[i + 1:, i], k[i, i + 1:])
    return lower, k.diagonal().copy()


# [+...+], [+...+, +, -] (a secant pair after the constraints), [+, -, +].
SIGN_PATTERNS = ([1.0] * 6, [1.0] * 6 + [-1.0], [1.0, -1.0, 1.0])


class TestCapacitanceFactor:
    """The LAPACK Cholesky of the leading +1 run, with the loop after it,
    is the unpivoted L D L' of K, and breaks down where the loop does."""

    @staticmethod
    def _cols(rng, n, signs):
        v = rng.standard_normal((n, len(signs)))
        # Small subtractive columns keep their pivots away from zero.
        v[:, np.asarray(signs) < 0] *= 0.1
        return ColumnSet(n, v, signs, range(len(signs)))

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_factor_matches_the_dense_ldlt(self, signs):
        rng = np.random.default_rng(60)
        for _ in range(5):
            cols = self._cols(rng, 30, signs)
            k = cols.columns.T @ cols.columns + np.diag(cols.signs)
            lower, pivots = structured._factor(k.copy(), cols)
            want_lower, want_pivots = _dense_ldlt(
                k, structured._denom_floor(cols.columns))
            assert (np.linalg.norm(lower - want_lower)
                    <= 1e-12 * np.linalg.norm(want_lower))
            np.testing.assert_allclose(pivots, want_pivots, rtol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_assembly_factors_the_dense_capacitance(self, kind, signs):
        rng = np.random.default_rng(61)
        n = 20
        aux = build_aux(spd_matrix(rng, n), kind, 0.1)
        cols = self._cols(rng, n, signs)
        v = cols.columns
        k = v.T @ aux.apply(np.eye(n)) @ v + np.diag(cols.signs)
        want_lower, want_pivots = _dense_ldlt(
            0.5 * (k + k.T), structured._denom_floor(v))
        bs = assemble_B(aux, cols)
        want_b = solve_triangular(want_lower, aux.apply(v).T, lower=True,
                                  unit_diagonal=True).T
        assert (np.linalg.norm(_woodbury_b(aux, bs) - want_b)
                <= 1e-12 * np.linalg.norm(want_b))
        np.testing.assert_allclose(cols.signs * bs.denoms, want_pivots,
                                   rtol=1e-12)

    @pytest.mark.parametrize("kind", ["incomplete-cholesky", "exact"])
    @pytest.mark.parametrize("scale", [1e7, 1e9])
    def test_breakdown_in_the_positive_run_names_the_loops_column(
            self, kind, scale):
        # M = I and two equal columns of norm `scale`: the second pivot,
        # about 2, is below its floor 1e-12 (1 + scale^2), and at 1e9 the
        # rounded K is singular, so LAPACK's Cholesky itself fails there.
        n = 4
        aux = build_aux(SparseSymmetricMatrix.from_dense(np.eye(n)), kind,
                        0.0)
        v = np.zeros((n, 3))
        v[0, :2] = scale
        v[1, 2] = 1.0
        cols = ColumnSet(n, v, np.ones(3), ["a", "twin", "b"])
        first = _dense_ldlt(v.T @ v + np.eye(3),
                            structured._denom_floor(v))
        assert first == 1
        with pytest.raises(DenominatorBreakdownError) as exc:
            assemble_B(aux, cols)
        assert exc.value.label == "twin"

    def test_breakdown_after_the_positive_run_names_the_loops_column(self):
        # TestStorageRecursion's e3 case on the split form: M = I, pivots
        # 1 + 1, 1 + 1, then 1 - 1 = 0 on the third column.
        n = 4
        aux = build_aux(SparseSymmetricMatrix.from_dense(np.eye(n)),
                        "incomplete-cholesky", 0.0)
        v = np.eye(n)[:, :3]
        cols = ColumnSet(n, v, [1.0, 1.0, -1.0], ["e1", "e2", "e3"])
        assert _dense_ldlt(v.T @ v + np.diag(cols.signs),
                           structured._denom_floor(v)) == 2
        with pytest.raises(DenominatorBreakdownError) as exc:
            assemble_B(aux, cols)
        assert exc.value.label == "e3"


class _SolveSpy:
    """A SuperLU handle's stand-in that records each solve's `trans` and
    its column count."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = []

    def solve(self, r, trans="N"):
        self.calls.append((trans, 1 if r.ndim == 1 else r.shape[1]))
        return self.lu.solve(r, trans=trans)


def test_split_assembly_makes_one_forward_block_solve():
    rng = np.random.default_rng(62)
    aux = build_aux(spd_matrix(rng, 30), "incomplete-cholesky", 0.1)
    cols = ColumnSet(30, rng.standard_normal((30, 5)), [1.0] * 4 + [-1.0],
                     range(5))
    aux._factor = spy = _SolveSpy(aux._factor)
    assemble_B(aux, cols)
    assert spy.calls == [("N", 5)]
