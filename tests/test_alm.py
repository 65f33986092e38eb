"""Augmented Lagrangian outer loop: merit functions, updates, models and
the solver driver."""

import csv
import dataclasses
import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from almprec import alm, inner, sparse, structured
from almprec.alm import (AlmConfig, HessianModel, PrecondManager,
                         SettingError, alm_solve, eval_al, eval_al_grad,
                         hessian_model, kkt_residuals, safeguard,
                         shifted_multipliers, update_penalty)
from almprec.auxprecond import KINDS, build_aux, ldlt
from almprec.bench import ExperimentConfig, run_alm_experiment
from almprec.problems import (PROBLEM_BUILDERS, NlpProblem, get_problem,
                              problem_names)
from almprec.sparse import SparseSymmetricMatrix
from almprec.structured import (LABEL_BFGS_W, LABEL_BFGS_Y, ColumnSet,
                                DenominatorBreakdownError, StructuredPrecond)


def dense_model(model):
    """The Hessian model M + sum_i s_i v_i v_i' assembled densely."""
    v = model.cols.columns
    return model.m_part.to_dense() + (v * model.cols.signs) @ v.T


class TestMerit:
    def test_equality_penalty_value(self):
        p = get_problem("EQ-QP")
        x = np.array([1.0, 1.0])
        lam = np.array([3.0])
        rho = 2.0
        # f = 1, c = 1, shifted = 1 + 3/2 -> penalty = 0.5*2*2.5^2
        assert eval_al(p, x, lam, rho) == pytest.approx(1.0 + 6.25)

    def test_inactive_inequality_contributes_nothing(self):
        p = get_problem("INEQ-QP")
        x = np.array([5.0, 0.0])  # c = -4, shifted negative
        assert eval_al(p, x, np.zeros(1), 1.0) == pytest.approx(25.0)

    def test_active_inequality_penalized(self):
        p = get_problem("INEQ-QP")
        x = np.zeros(2)  # c = 1, penalty 0.5 * rho * 1^2
        assert eval_al(p, x, np.zeros(1), 2.0) == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for name in problem_names():
            p = get_problem(name)
            for _ in range(5):
                x = rng.standard_normal(p.n)
                lam = rng.standard_normal(p.m)
                rho = float(10.0 ** rng.uniform(-1, 2))
                g = eval_al_grad(p, x, lam, rho)
                fd = np.empty(p.n)
                h = 1e-6
                for i in range(p.n):
                    e = np.zeros(p.n)
                    e[i] = h
                    fd[i] = (eval_al(p, x + e, lam, rho)
                             - eval_al(p, x - e, lam, rho)) / (2 * h)
                np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_shifted_multipliers_clip_inequalities(self):
        p = get_problem("INEQ-QP")
        x = np.array([5.0, 0.0])  # c = -4
        lam_hat = shifted_multipliers(p, x, np.array([1.0]), 1.0)
        assert lam_hat[0] == 0.0


# The per-constraint loops that the vectorised functions replaced, kept
# as the reference they must match bit for bit.

def _loop_eval_al(p, x, lam, rho):
    c = p.cons(x)
    total = p.f(x)
    for i, kind in enumerate(p.kinds):
        shifted = c[i] + lam[i] / rho
        if kind == "inequality":
            shifted = max(0.0, shifted)
        total += 0.5 * rho * shifted ** 2
    return float(total)


def _loop_shifted_multipliers(p, x, lam, rho):
    lam_hat = lam + rho * p.cons(x)
    for i, kind in enumerate(p.kinds):
        if kind == "inequality":
            lam_hat[i] = max(0.0, lam_hat[i])
    return lam_hat


def _loop_kkt_multipliers(p, x, lam_bar, rho):
    """The piecewise estimate the report once carried: shifted value for
    equalities and active inequalities, zero otherwise."""
    c = p.cons(x)
    lam = np.zeros(p.m)
    for i, kind in enumerate(p.kinds):
        shifted = lam_bar[i] + rho * c[i]
        if kind == "equality" or shifted > 0.0:
            lam[i] = shifted
    return lam


def _loop_kkt_residuals(p, x, lam):
    c = p.cons(x)
    grad_l = p.grad(x).copy()
    if p.m:
        grad_l += p.jac_cols(x) @ lam
    opt = float(np.max(
        np.abs(alm.project_box(x - grad_l, p.lower, p.upper) - x),
        initial=0.0))
    compl = 0.0
    feas = 0.0
    for i, kind in enumerate(p.kinds):
        if kind == "equality":
            compl = max(compl, abs(c[i]))
            feas = max(feas, abs(c[i]))
        else:
            compl = max(compl, abs(min(-c[i], lam[i])))
            feas = max(feas, max(0.0, c[i]))
    return opt, float(compl), float(feas)


@pytest.mark.parametrize("name", ["C4-SYN", "HS63"])
def test_vectorised_constraint_terms_match_the_loops(name):
    """C4-SYN mixes both kinds and has m = 10, past the length where a
    pairwise sum would round differently; HS63 has a nonlinear equality.
    The shifted multipliers also equal the piecewise KKT estimate."""
    rng = np.random.default_rng(10)
    p = get_problem(name)
    for _ in range(20):
        x = rng.standard_normal(p.n) * 2.0
        lam = rng.standard_normal(p.m) * 3.0
        rho = float(10.0 ** rng.uniform(-1, 3))
        assert eval_al(p, x, lam, rho) == _loop_eval_al(p, x, lam, rho)
        for got, want in (
                (shifted_multipliers(p, x, lam, rho),
                 _loop_shifted_multipliers(p, x, lam, rho)),
                (shifted_multipliers(p, x, lam, rho),
                 _loop_kkt_multipliers(p, x, lam, rho))):
            assert got.tobytes() == want.tobytes()
        lam_kkt = shifted_multipliers(p, x, lam, rho)
        assert kkt_residuals(p, x, lam_kkt) \
            == _loop_kkt_residuals(p, x, lam_kkt)


class TestHessianModel:
    def test_nw_matvec_matches_merit_hessian(self):
        rng = np.random.default_rng(1)
        for name in ("EQ-QP", "HS63", "C4-SYN"):
            p = get_problem(name)
            x = rng.standard_normal(p.n) * 0.3 + 1.0
            lam = np.abs(rng.standard_normal(p.m))
            rho = 5.0
            model = hessian_model(p, x, lam, rho, "NW")
            h = 1e-6
            fd = np.empty((p.n, p.n))
            for i in range(p.n):
                e = np.zeros(p.n)
                e[i] = h
                fd[:, i] = (eval_al_grad(p, x + e, lam, rho)
                            - eval_al_grad(p, x - e, lam, rho)) / (2 * h)
            got = dense_model(model)
            # The models coincide wherever no inequality switches
            # activation across the stencil; these points are generic.
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-4)

    def test_qn_secant_shift_uses_curvature_gap(self):
        p = get_problem("EQ-QP")
        x = np.zeros(2)
        s = np.array([1.0, 0.0])
        y = np.array([5.0, 0.0])
        model = hessian_model(p, x, np.zeros(1), 1.0, "QN", secant=(s, y))
        # Gauss-Newton apply: hess f + rho jac jac' -> (2 + 1) on s.
        assert model.sigma == pytest.approx((5.0 - 3.0) / 1.0)

    def test_qn_leaves_out_a_secant_pair_the_model_reproduces(self):
        # BOX-QP has no constraints: sigma = 1 absorbs the +s, so
        # w = hess f s + sigma s is y up to rounding.
        p = get_problem("BOX-QP")
        s = np.linspace(1.0, 2.0, p.n)
        y = p.hess(p.x0) @ s + s
        model = hessian_model(p, p.x0, np.zeros(p.m), 10.0, "QN",
                              secant=(s, y))
        assert model.sigma == pytest.approx(1.0)
        assert model.cols.m == 0
        assert model.cols.notes == ("secant reproduced",)


def _same_matrix(a, b):
    return (a.n == b.n and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
            and a.vals.tobytes() == b.vals.tobytes())


class TestQnShift:
    """QN's sigma is the secant shift floored at SIGMA_MIN, whatever the
    curvature of hess f: EQ-QP's is positive definite, HS63's and
    HS41's indefinite and HS48's singular positive semidefinite."""

    @pytest.mark.parametrize("name", ["EQ-QP", "C4-SYN", "HS63", "HS41",
                                      "HS48"])
    def test_sigma_equals_secant_formula(self, name):
        """sigma = max((y - G s)'s / s's, SIGMA_MIN), G = hess f
        + rho J_A J_A' over the equalities and active inequalities, and
        SIGMA_MIN without a pair; M is hess f + sigma I."""
        rng = np.random.default_rng(8)
        p = get_problem(name)
        rho = 10.0
        for _ in range(5):
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m)
            s = rng.standard_normal(p.n)
            y = rng.standard_normal(p.n) * 3.0
            active = p.equality | (shifted_multipliers(p, x, lam, rho) > 0.0)
            jac = p.jac_cols(x)[:, active]
            gauss_newton = p.hess(x) + rho * jac @ jac.T
            shift = float((y - gauss_newton @ s) @ s) / float(s @ s)
            for secant, want in ((None, alm.SIGMA_MIN),
                                 ((s, y), max(shift, alm.SIGMA_MIN))):
                model = hessian_model(p, x, lam, rho, "QN", secant=secant)
                assert model.sigma == pytest.approx(want, rel=1e-12)
                assert _same_matrix(model.m_part,
                                    SparseSymmetricMatrix.from_dense(
                                        p.hess(x)
                                        + model.sigma * np.eye(p.n)))

    @pytest.mark.parametrize("name", problem_names())
    def test_positive_definite_hess_f_needs_no_eigenvalues(self, name,
                                                           monkeypatch):
        """Nor does any other hess f: QN's model takes no eigenvalues,
        and without a secant pair its sigma is SIGMA_MIN."""
        def forbidden(*_args, **_kwargs):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(alm.np.linalg, "eigvalsh", forbidden)
        p = get_problem(name)
        s = np.ones(p.n)
        for secant in (None, (s, 4.0 * s)):
            model = hessian_model(p, p.x0, np.zeros(p.m), 10.0, "QN",
                                  secant=secant)
            assert model.sigma >= alm.SIGMA_MIN
            if secant is None:
                assert model.sigma == alm.SIGMA_MIN


class TestNwZeroConstraintHessians:
    @pytest.mark.parametrize("name", ["EQ-QP", "INEQ-QP", "HS48", "HS63",
                                      "C4-SYN"])
    def test_model_equals_full_accumulation(self, name):
        rng = np.random.default_rng(9)
        p = get_problem(name)
        for _ in range(5):
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m)
            model = hessian_model(p, x, lam, 5.0, "NW")
            lam_hat = shifted_multipliers(p, x, lam, 5.0)
            dense = p.hess(x).copy()
            for i in range(p.m):
                if lam_hat[i] != 0.0:
                    dense += lam_hat[i] * p.cons_hess(i, x)
            want = SparseSymmetricMatrix.from_dense(dense)
            assert _same_matrix(model.m_part, want)

    @pytest.mark.parametrize("budget", [4, 7])
    def test_row_blocks_sum_as_the_whole_array(self, budget, monkeypatch):
        # HS63 (n = 3) in blocks of one row, then of two rows and one.
        p = get_problem("HS63")
        rng = np.random.default_rng(10)
        points = [(rng.standard_normal(p.n), rng.standard_normal(p.m))
                  for _ in range(5)]
        want = [hessian_model(p, x, lam, 5.0, "NW") for x, lam in points]
        monkeypatch.setattr(sparse, "_SCAN_ENTRIES", budget)
        assert len(sparse._row_blocks(p.n)) > 1
        for (x, lam), model in zip(points, want):
            assert _same_matrix(hessian_model(p, x, lam, 5.0, "NW").m_part,
                                model.m_part)

    def test_zero_constraint_hessians_are_not_accumulated(self):
        class ZeroHessian(np.ndarray):
            """A zero array that fails any multiply or add on it."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc in (np.multiply, np.add):
                    raise AssertionError("zero Hessian accumulated")
                return getattr(ufunc, method)(
                    *(np.asarray(v) for v in inputs), **kwargs)

        p = get_problem("C4-SYN")
        calls = []

        def cons_hess(i, x):
            calls.append(i)
            return np.zeros((p.n, p.n)).view(ZeroHessian)
        p.cons_hess = cons_hess
        x = np.full(p.n, 3.0)
        model = hessian_model(p, x, np.ones(p.m), 5.0, "NW")
        assert calls
        assert _same_matrix(model.m_part,
                            SparseSymmetricMatrix.from_dense(p.hess(x)))


def test_nw_model_with_constraint_hessians_builds_in_memory_linear_in_n():
    # At n = 2500 one dense n x n array is 48 MiB.  hess f (a 5-point
    # Laplacian) and both constraint Hessians are allocated before
    # tracing; both constraints contribute, lam_hat != 0, and the model
    # adds their Hessians sparsely instead of into a dense copy.
    k = 50
    n = k * k
    idx = np.arange(n)
    hess = np.zeros((n, n))
    hess[idx, idx] = 4.0
    row_pairs, col_pairs = idx[idx % k != k - 1], idx[:-k]
    hess[row_pairs, row_pairs + 1] = hess[row_pairs + 1, row_pairs] = -1.0
    hess[col_pairs, col_pairs + k] = hess[col_pairs + k, col_pairs] = -1.0
    # c_0 = x'x - 1 and c_1 = sum x_i x_{i+1} - 1/2.
    sphere, chain = 2.0 * np.eye(n), np.zeros((n, n))
    chain[idx[:-1], idx[1:]] = chain[idx[1:], idx[:-1]] = 1.0
    p = NlpProblem(
        name="NW-MEMORY", n=n, x0=np.linspace(0.0, 0.1, n),
        kinds=("equality",) * 2, f=None, grad=None, hess=lambda x: hess,
        cons=lambda x: np.array([x @ x - 1.0, x[:-1] @ x[1:] - 0.5]),
        jac_cols=lambda x: np.column_stack(
            (2.0 * x, np.r_[x[1:], 0.0] + np.r_[0.0, x[:-1]])),
        cons_hess=lambda i, x: (sphere, chain)[i])
    lam = np.ones(2)
    bound = 1024 * n
    assert 4 * bound <= 8 * n * n
    tracemalloc.start()
    try:
        model = hessian_model(p, p.x0, lam, 10.0, "NW")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lam_hat = shifted_multipliers(p, p.x0, lam, 10.0)
    assert np.all(lam_hat != 0.0)
    assert peak <= bound
    dense = hess + lam_hat[0] * sphere
    dense += lam_hat[1] * chain
    assert _same_matrix(model.m_part, SparseSymmetricMatrix.from_dense(dense))


def _frozen(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _laplacian(k):
    """Dense 5-point Laplacian on the interior of a k x k grid."""
    t = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    return np.kron(t, np.eye(k)) + np.kron(np.eye(k), t)


def _quadrant_means(k):
    """n x 4 columns averaging each quadrant of a k x k grid."""
    idx = np.arange(k * k).reshape(k, k)
    half = k // 2
    cols = np.zeros((k * k, 4))
    for q, (rs, cs) in enumerate([(slice(0, half), slice(0, half)),
                                  (slice(0, half), slice(half, k)),
                                  (slice(half, k), slice(0, half)),
                                  (slice(half, k), slice(half, k))]):
        support = idx[rs, cs].ravel()
        cols[support, q] = 1.0 / support.size
    return cols


def _eq_tn_problem():
    """An equality QP on a 5 x 5 grid whose Hessians and Jacobian are
    constants: four quadrant-mean equalities on a Laplacian."""
    k = 5
    n = k * k
    rng = np.random.default_rng(14)
    q, a = _frozen(_laplacian(k)), _frozen(_quadrant_means(k))
    c, d = _frozen(rng.uniform(0.5, 1.5, n) / 36.0), 0.1 * np.ones(4)
    zero = _frozen(np.zeros((n, n)))
    return NlpProblem(
        name="EQ-TN", n=n, x0=np.zeros(n), kinds=("equality",) * 4,
        f=lambda x: float(0.5 * x @ (q @ x) - c @ x),
        grad=lambda x: q @ x - c, hess=lambda x: q,
        cons=lambda x: a.T @ x - d, jac_cols=lambda x: a,
        cons_hess=lambda i, x: zero)


def _obstacle_problem():
    """An obstacle problem on an 8 x 8 grid with four quadrant caps,
    whose Hessian and Jacobian are constants."""
    k = 8
    n = k * k
    h = 1.0 / (k + 1)
    grid = h * np.arange(1, k + 1)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    s = np.sin(9.2 * xx) * np.sin(9.3 * yy)
    lower, upper = (s ** 3).ravel(), (s ** 2 + 0.02).ravel()
    lap, quads = _frozen(_laplacian(k)), _frozen(_quadrant_means(k))
    f_src = _frozen(np.full(n, 6.0 * h * h))
    caps = 0.8 * (0.02 + quads.T @ np.maximum(lower, 0.0))
    return NlpProblem(
        name="OBSTACLE", n=n, x0=np.clip(np.zeros(n), lower, upper),
        kinds=("inequality",) * 4,
        f=lambda v: float(0.5 * v @ (lap @ v) - f_src @ v),
        grad=lambda v: lap @ v - f_src, hess=lambda v: lap,
        cons=lambda v: quads.T @ v - caps, jac_cols=lambda v: quads,
        cons_hess=lambda i, v: None,  # QN reads no constraint Hessian
        lower=lower, upper=upper)


def _memo_jac():
    return np.random.default_rng(12).standard_normal((6, 4))


def _memo_problem(hess, cons_hess, jac_cols=None):
    """Four linear inequality rows with the given Hessian callables (and
    Jacobian callable, by default a fixed writeable array), for
    hessian_model alone: f and grad are placeholders."""
    n = 6
    jac = _memo_jac()
    return NlpProblem(
        name="MEMO", n=n, x0=np.zeros(n), kinds=("inequality",) * 4,
        f=lambda x: 0.0, grad=lambda x: np.zeros(n), hess=hess,
        cons=lambda x: jac.T @ x - 0.1,
        jac_cols=jac_cols if jac_cols is not None else lambda x: jac,
        cons_hess=cons_hess)


def _memo_hessians():
    """A frozen indefinite hess f with zero diagonal entries, and
    constraint Hessians of which two are zero and two are not."""
    hess = np.diag([2.0, 0.0, 3.0, 1.0, 0.0, 4.0])
    hess[3, 0] = hess[0, 3] = 0.5
    hess[5, 1] = hess[1, 5] = -1.0
    zero = _frozen(np.zeros((6, 6)))
    cons = [zero, _frozen(np.eye(6)), zero,
            _frozen(np.diag([1.0, 0.0, 0.0, 0.0, 2.0, 0.0]))]
    return _frozen(hess), cons


def _same_model(a, b):
    return (_same_matrix(a.m_part, b.m_part) and a.sigma == b.sigma
            and a.cols.labels == b.cols.labels
            and a.cols.columns.tobytes() == b.cols.columns.tobytes()
            and a.cols.signs.tobytes() == b.cols.signs.tobytes())


def _model_args(n, m):
    rng = np.random.default_rng(13)
    for k in range(6):
        s = rng.standard_normal(n)
        x = rng.standard_normal(n)
        # Every other point keeps only the rows with zero Hessians active.
        lam = (2.0 * rng.standard_normal(m) if k % 2
               else np.array([100.0, -100.0, 100.0, -100.0]))
        for mode, secant in (("NW", None), ("QN", None),
                             ("QN", (s, 3.0 * s + rng.standard_normal(n)))):
            yield x, lam, mode, secant


class TestSolveMemo:
    def test_memoised_models_are_bitwise_equal(self):
        hess, cons = _memo_hessians()
        p = _memo_problem(lambda x: hess, lambda i, x: cons[i])
        memo = alm._SolveMemo()
        for x, lam, mode, secant in _model_args(p.n, p.m):
            got = hessian_model(p, x, lam, 10.0, mode, secant=secant,
                                _memo=memo)
            want = hessian_model(p, x, lam, 10.0, mode, secant=secant)
            assert _same_model(got, want)

    def test_shifted_pattern_matches_dense_shift(self):
        hess, _ = _memo_hessians()
        sparse_hess = SparseSymmetricMatrix.from_dense(hess)
        # -3 cancels the diagonal entry 3.0 exactly; that entry is dropped
        # as from_dense drops it.
        for sigma in (1e-8, 0.5, 2.0, -3.0):
            want = SparseSymmetricMatrix.from_dense(hess + sigma * np.eye(6))
            assert _same_matrix(sparse_hess.shifted(sigma), want)

    @pytest.mark.parametrize("view", [False, True])
    def test_arrays_updated_in_place_are_read_afresh(self, view):
        hess_buf = np.array(_memo_hessians()[0])
        cons_buf = np.zeros((6, 6))

        def expose(buf):
            """The buffer itself, or one read-only view of it, returned
            as the same object on every call."""
            if not view:
                return buf
            out = buf.view()
            out.flags.writeable = False
            return out

        hess_out, cons_out = expose(hess_buf), expose(cons_buf)
        p = _memo_problem(lambda x: hess_out, lambda i, x: cons_out)
        memo = alm._SolveMemo()
        for k, (x, lam, mode, secant) in enumerate(_model_args(p.n, p.m)):
            # Alternate between a zero and a nonzero constraint Hessian,
            # and between a singular and a positive definite hess f.
            cons_buf[:] = (k % 2) * np.eye(6)
            hess_buf[1, 1] = hess_buf[4, 4] = 5.0 * (k % 3)
            got = hessian_model(p, x, lam, 10.0, mode, secant=secant,
                                _memo=memo)
            want = hessian_model(p, x, lam, 10.0, mode, secant=secant)
            assert _same_model(got, want)

    def test_fresh_read_only_arrays_are_not_kept(self):
        # Nor is a restriction to a free set built from them.
        hess, cons = _memo_hessians()
        jac = _memo_jac()
        p = _memo_problem(lambda x: _frozen(hess),
                          lambda i, x: _frozen(cons[i]),
                          lambda x: _frozen(jac))
        memo = alm._SolveMemo()
        free = np.array([0, 2, 3, 5])
        for x, lam, mode, secant in _model_args(p.n, p.m):
            for f in (None, free, free.copy(), np.array([1, 2, 4, 5])):
                hessian_model(p, x, lam, 10.0, mode, secant=secant, free=f,
                              _memo=memo)
                assert not memo._entries

    @pytest.mark.parametrize("problem, cfg", [
        (_eq_tn_problem, AlmConfig()),
        (_obstacle_problem, AlmConfig(inner_solver="pspg",
                                      hessian_mode="QN"))],
        ids=["eq-tn", "obstacle-pspg"])
    def test_a_solve_leaves_no_cyclic_garbage(self, problem, cfg):
        # The memo's weak-reference callbacks hold it weakly, so all it
        # derived is freed by reference counting when the solve returns.
        p = problem()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert alm_solve(p, cfg).converged
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_eq_tn_solve_builds_the_sparse_block_once(self, monkeypatch):
        p = _eq_tn_problem()
        calls = {"from_dense": 0, "models": 0, "norms": 0}
        from_dense = SparseSymmetricMatrix.from_dense.__func__
        model, norms = alm.hessian_model, alm.column_norms

        def counted_from_dense(cls, dense):
            calls["from_dense"] += 1
            return from_dense(cls, dense)

        def counted_model(*args, **kwargs):
            calls["models"] += 1
            return model(*args, **kwargs)

        def counted_norms(jac):
            calls["norms"] += 1
            return norms(jac)
        monkeypatch.setattr(SparseSymmetricMatrix, "from_dense",
                            classmethod(counted_from_dense))
        monkeypatch.setattr(alm, "hessian_model", counted_model)
        monkeypatch.setattr(alm, "column_norms", counted_norms)
        rep = alm_solve(p, AlmConfig(inner_solver="truncated-newton",
                                     hessian_mode="NW",
                                     aux_kind="incomplete-cholesky",
                                     drop_tol=1e-2))
        assert rep.converged
        assert calls["models"] > 1
        assert calls["from_dense"] == calls["norms"] == 1
        assert rep.f_value == p.f(rep.x)

    def test_obstacle_pspg_solve_probes_hess_f_once(self, monkeypatch):
        p = _obstacle_problem()
        calls = {"from_dense": 0, "models": 0, "restrictions": 0}
        from_dense = SparseSymmetricMatrix.from_dense.__func__
        model = alm.hessian_model
        submatrix = SparseSymmetricMatrix.submatrix

        def counted_from_dense(cls, dense):
            calls["from_dense"] += 1
            return from_dense(cls, dense)

        def counted_model(*args, **kwargs):
            calls["models"] += 1
            return model(*args, **kwargs)

        def counted_submatrix(self, idx):
            calls["restrictions"] += 1
            return submatrix(self, idx)
        monkeypatch.setattr(SparseSymmetricMatrix, "from_dense",
                            classmethod(counted_from_dense))
        monkeypatch.setattr(alm, "hessian_model", counted_model)
        monkeypatch.setattr(SparseSymmetricMatrix, "submatrix",
                            counted_submatrix)
        rep = alm_solve(p, AlmConfig(inner_solver="pspg",
                                     hessian_mode="QN"))
        assert rep.converged
        assert calls["models"] > 1
        assert calls["from_dense"] == 1
        # One restriction per new free set, each of which also rebuilt
        # the auxiliary.
        assert 0 < calls["restrictions"] <= rep.ac_m < calls["models"]


def _hess_with_threes():
    """A frozen positive definite hess f with 3.0 at (1, 1) and (4, 4):
    sigma = -3 cancels both entries exactly."""
    hess = np.diag([2.0, 3.0, 4.0, 5.0, 3.0, 6.0])
    hess[3, 0] = hess[0, 3] = 0.5
    hess[5, 1] = hess[1, 5] = -1.0
    return _frozen(hess)


def _free_sequence():
    """The free sets A, A, B, A, None, with B of A's size.  The repeat
    is the same array, as `_Subproblem.free_system` passes it on; the
    return to A is a new one."""
    a, b = np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5])
    return [a, a, b, a.copy(), None]


class TestRestrictionMemo:
    """hessian_model through one _SolveMemo over a sequence of free sets:
    the restriction it keeps is built, reused and replaced, and every
    model equals the one built without a memo, byte for byte."""

    @staticmethod
    def _restrictions(memo):
        return sum(alm._CUT in values
                   for _, values in memo._entries.values())

    # (mode, secant, SIGMA_MIN): SIGMA_MIN = -3 with a curvature pair
    # that asks for less makes sigma = -3, which cancels two diagonal
    # entries of hess f.
    @pytest.mark.parametrize("mode, secant_scale, sigma_min", [
        ("NW", None, 1e-8), ("QN", None, 1e-8), ("QN", 3.0, 1e-8),
        ("QN", None, -3.0), ("QN", -10.0, -3.0)])
    def test_models_match_the_memo_less_ones(self, monkeypatch, mode,
                                             secant_scale, sigma_min):
        monkeypatch.setattr(alm, "SIGMA_MIN", sigma_min)
        hess, jac = _hess_with_threes(), _frozen(_memo_jac())
        zero = _frozen(np.zeros((6, 6)))
        p = _memo_problem(lambda x: hess, lambda i, x: zero, lambda x: jac)
        rng = np.random.default_rng(22)
        x, lam, s = (rng.standard_normal(6), 5.0 * rng.standard_normal(4),
                     rng.standard_normal(6))
        secant = (None if secant_scale is None
                  else (s, secant_scale * s + 0.01 * rng.standard_normal(6)))
        memo, models = alm._SolveMemo(), []
        for free in _free_sequence():
            kwargs = dict(secant=secant, free=free)
            got = hessian_model(p, x, lam, 10.0, mode, _memo=memo, **kwargs)
            want = hessian_model(p, x, lam, 10.0, mode, **kwargs)
            assert _same_bytes(got, want)
            assert self._restrictions(memo) == 1
            models.append(got.m_part)
        cancels = sigma_min == -3.0
        if cancels:
            assert all(np.count_nonzero(m.rows == m.cols) == m.n - 2
                       for m in models[:4])
        # The repeated set reuses the restriction; the new array after B
        # builds a new one.
        if mode == "NW":
            assert models[1] is models[0] and models[3] is not models[0]
        elif not cancels:
            assert models[1].rows is models[0].rows
            assert models[3].rows is not models[0].rows

    @pytest.mark.parametrize("view", [False, True])
    def test_arrays_changed_in_place_are_read_again(self, view):
        hess_buf, jac_buf = np.array(_hess_with_threes()), _memo_jac()

        def expose(buf):
            """The buffer itself, or one read-only view of it, returned
            as the same object on every call."""
            if not view:
                return buf
            out = buf.view()
            out.flags.writeable = False
            return out

        hess_out, jac_out = expose(hess_buf), expose(jac_buf)
        zero = _frozen(np.zeros((6, 6)))
        p = _memo_problem(lambda x: hess_out, lambda i, x: zero,
                          lambda x: jac_out)
        # At x = 0 every row is feasible and, with these multipliers,
        # active, so the columns are ordered by their norms alone.
        x, lam = np.zeros(6), np.full(4, 100.0)
        memo, labels = alm._SolveMemo(), set()
        for k, free in enumerate(_free_sequence() * 2):
            jac_buf[:, k % 4] *= 4.0
            hess_buf[2, 2] = 4.0 + k
            for mode in ("NW", "QN"):
                got = hessian_model(p, x, lam, 10.0, mode, free=free,
                                    _memo=memo)
                want = hessian_model(p, x, lam, 10.0, mode, free=free)
                assert _same_bytes(got, want)
                labels.add(got.cols.labels)
        assert len(labels) > 1


class TestShiftMemo:
    """QN's shifted M through one _SolveMemo: the same object for the same
    restriction and sigma, so decide_update skips the norm."""

    def test_same_sigma_and_restriction_give_the_same_object(self):
        hess = _hess_with_threes()
        whole = SparseSymmetricMatrix.from_dense(hess)
        free = np.array([0, 1, 3, 4])
        memo = alm._SolveMemo()
        first = memo.restricted(hess, whole, free, 0.5)
        assert memo.restricted(hess, whole, free, 0.5) is first
        assert _same_matrix(first, whole.submatrix(free).shifted(0.5))
        other = memo.restricted(hess, whole, free, 0.25)
        assert other is not first
        assert _same_matrix(other, whole.submatrix(free).shifted(0.25))
        # An equal free set that is another object is another restriction.
        assert memo.restricted(hess, whole, free.copy(), 0.25) is not other
        assert memo.restricted(hess, whole, None, 0.25) is not other

    def test_a_writeable_array_is_shifted_afresh(self):
        hess = np.array(_hess_with_threes())
        whole = SparseSymmetricMatrix.from_dense(hess)
        memo = alm._SolveMemo()
        assert (memo.restricted(hess, whole, None, 0.5)
                is not memo.restricted(hess, whole, None, 0.5))
        assert not memo._entries

    def test_qn_models_share_m_and_skip_the_norm(self, monkeypatch):
        hess, jac = _hess_with_threes(), _frozen(_memo_jac())
        p = _memo_problem(lambda x: hess, lambda i, x: None, lambda x: jac)
        memo, free = alm._SolveMemo(), np.array([0, 1, 3, 4])
        x, lam = np.zeros(6), np.full(4, 100.0)
        models = [hessian_model(p, x, lam, 10.0, "QN", free=free,
                                _memo=memo) for _ in range(2)]
        assert models[1].m_part is models[0].m_part

        def forbidden(*_args):
            raise AssertionError("norm1_diff called")
        monkeypatch.setattr(structured, "norm1_diff", forbidden)
        (a, b) = models
        assert structured.decide_update(a.m_part, b.m_part, a.cols,
                                        b.cols) == "none"


class TestHeldColumnReuse:
    """The manager's column set handed back to the next model: reused on
    the constant-Jacobian workloads, with the counts of a solve without
    reuse."""

    @staticmethod
    def _solve(monkeypatch, p, cfg, reuse):
        reused = []
        build = alm.build_column_set

        def counted(*args, held=None, **kwargs):
            cols = build(*args, held=held, **kwargs)
            reused.append(held is not None and cols is held)
            return cols
        monkeypatch.setattr(alm, "build_column_set", counted)
        if not reuse:
            monkeypatch.setattr(PrecondManager, "held_cols",
                                lambda self, free: None)
        rep = alm_solve(p, cfg)
        monkeypatch.undo()
        return rep, reused

    @pytest.mark.parametrize("problem, cfg", [
        (_eq_tn_problem, AlmConfig()),
        (_obstacle_problem, AlmConfig(inner_solver="pspg",
                                      hessian_mode="QN"))],
        ids=["eq-tn", "obstacle-pspg"])
    def test_counts_match_a_solve_without_reuse(self, monkeypatch, problem,
                                                cfg):
        p = problem()
        rep, reused = self._solve(monkeypatch, p, cfg, reuse=True)
        off, never = self._solve(monkeypatch, p, cfg, reuse=False)
        assert rep.converged and any(reused) and not any(never)
        fields = ("status", "outer_iterations", "inner_iterations",
                  "krylov_precond", "krylov_plain", "ac_m", "ac_v")
        assert ([getattr(rep, f) for f in fields]
                == [getattr(off, f) for f in fields])
        if cfg.inner_solver == "pspg":
            # PSPG applies no model: the solve is bit for bit the same.
            assert rep.x.tobytes() == off.x.tobytes()
        else:
            # Only the model's low-rank sum rounds in another order.
            np.testing.assert_allclose(rep.x, off.x, rtol=0.0, atol=1e-12)

    def test_held_set_goes_only_to_its_own_free_set(self):
        cfg = AlmConfig(hessian_mode="QN")
        manager = PrecondManager(cfg)
        free = np.array([0, 1, 3, 4])
        assert manager.held_cols(free) is None
        p = _memo_problem(lambda x: _hess_with_threes(), lambda i, x: None,
                          lambda x: _frozen(_memo_jac()))
        model = hessian_model(p, np.zeros(6), np.full(4, 100.0), 10.0, "QN",
                              free=free)
        precond = manager.get(model, free)
        assert manager.held_cols(free) is precond.cols
        assert manager.held_cols(free.copy()) is None
        assert manager.held_cols(None) is None


class TestFreeSetOwner:
    """_Subproblem.free_system is the one place that tells one free set
    from another: it compares each set by value with the one the caches
    hold and, while the two are equal, passes that same array on.  So
    the memo restricts hess f once per change, and the manager builds
    the auxiliary once per change."""

    @pytest.mark.parametrize("mode", ["NW", "QN"])
    def test_one_restriction_and_one_build_per_change(self, monkeypatch,
                                                      mode):
        hess, jac = _hess_with_threes(), _frozen(_memo_jac())
        zero = _frozen(np.zeros((6, 6)))
        p = _memo_problem(lambda x: hess, lambda i, x: zero, lambda x: jac)
        a = np.array([True, False, False, True, False, False])
        none = np.zeros(6, dtype=bool)
        # (active mask, whether it changes the free set): the first set,
        # a repeat, a fresh but equal mask, another set, nothing pinned
        # twice, then a fresh mask equal to the first.
        script = [(a, True), (a, False), (a.copy(), False),
                  (np.roll(a, 1), True), (none, True), (none.copy(), False),
                  (a.copy(), True)]
        masks = iter([mask for mask, _ in script])
        monkeypatch.setattr(alm, "active_bound_mask",
                            lambda *args, **kwargs: next(masks))
        restrictions = []
        submatrix = SparseSymmetricMatrix.submatrix

        def counted_submatrix(self, idx):
            restrictions.append(idx)
            return submatrix(self, idx)
        monkeypatch.setattr(SparseSymmetricMatrix, "submatrix",
                            counted_submatrix)
        cfg = AlmConfig(hessian_mode=mode, precond_policy="once")
        manager = PrecondManager(cfg)
        sub = alm._Subproblem(p, np.zeros(p.m), alm.RHO1, cfg, manager,
                              alm._SolveMemo())
        z, g = np.zeros(6), np.ones(6)
        frees = []
        for mask, changes in script:
            before = len(restrictions), manager.ac_m
            _, _, free = sub.free_system(z, g, None, None)
            frees.append(free)
            assert manager.ac_m - before[1] == changes
            assert len(restrictions) - before[0] == (changes
                                                     and mask.any())
        assert manager.ac_v == 0
        assert frees[1] is frees[0] and frees[2] is frees[0]
        assert frees[4] == frees[5] == slice(None)
        assert frees[6] is not frees[0]
        np.testing.assert_array_equal(frees[6], frees[0])


def _dense_problem(hess):
    """A problem without constraints whose hess f is the array `hess`,
    for hessian_model alone: f and grad are placeholders."""
    n = hess.shape[0]
    return NlpProblem(name="DENSE", n=n, x0=np.zeros(n), kinds=(),
                      f=lambda x: 0.0, grad=lambda x: np.zeros(n),
                      hess=lambda x: hess, cons=lambda x: np.zeros(0),
                      jac_cols=lambda x: np.zeros((n, 0)), cons_hess=None)


def _probe_margin(dense):
    """tau = 10 n eps ||a||_1: a - tau I is not positive definite when a
    is singular, however rounding leaves its pivots."""
    n = dense.shape[0]
    return 10.0 * n * np.finfo(np.float64).eps * np.linalg.norm(dense, 1)


def _dpotrf_probe(dense):
    """Whether LAPACK's Cholesky factorization of a - tau I succeeds."""
    shifted = np.array(dense, dtype=np.float64)
    shifted[np.diag_indices(dense.shape[0])] -= _probe_margin(dense)
    return dpotrf(shifted, lower=1, clean=0)[1] == 0


def _probe_cases():
    """(label, matrix, positive definite)."""
    eps = np.finfo(np.float64).eps
    # tau equals both diagonal entries, so a - tau I has a zero diagonal:
    # SuperLU pivots off it, and the pivots it finds are both positive.
    d = 20.0 * eps * (1.0 + 20.0 * eps)
    yield "spd", np.array([[2.0, 1.0], [1.0, 2.0]]), True
    yield "laplacian", _laplacian(6), True
    yield "singular psd", get_problem("HS48").hess(np.zeros(5)), False
    yield "indefinite", np.array([[1.0, 2.0], [2.0, 1.0]]), False
    yield "zero diagonal", np.array([[d, 1.0], [1.0, d]]), False
    yield "1x1 positive", np.array([[3.0]]), True
    yield "1x1 negative", np.array([[-3.0]]), False
    rng = np.random.default_rng(15)
    for n in (2, 50, 300):
        b = np.where(rng.random((n, n)) < 3.0 / n,
                     rng.standard_normal((n, n)), 0.0)
        spd = b @ b.T + 0.1 * np.eye(n)
        mid = np.median(np.linalg.eigvalsh(spd))
        yield "random spd %d" % n, spd, True
        yield "random indefinite %d" % n, spd - mid * np.eye(n), False
        # Rank n - 1: without the margin tau, rounding often leaves every
        # pivot positive.
        low_rank = rng.standard_normal((n, n - 1))
        yield "random singular psd %d" % n, low_rank @ low_rank.T, False


def _with_whole_diagonal(dense):
    """The lower triangle of `dense` at its nonzero entries and on its
    whole diagonal, zeros included."""
    n = dense.shape[0]
    rows, cols = np.nonzero(np.tril(dense != 0.0) | np.eye(n, dtype=bool))
    return SparseSymmetricMatrix(n, rows, cols, dense[rows, cols])


class TestSparseProbe:
    @pytest.mark.parametrize("dense, pd", [
        pytest.param(dense, pd, id=label)
        for label, dense, pd in _probe_cases()])
    def test_verdict_matches_dense_cholesky(self, dense, pd):
        """`ldlt`, the `exact` auxiliary's factor, gives a factor of
        a - tau I exactly when dpotrf does."""
        assert _dpotrf_probe(dense) is pd
        # With the whole diagonal stored, zeros included, or with zeros
        # dropped, as from_dense stores it.
        for a in (_with_whole_diagonal(dense),
                  SparseSymmetricMatrix.from_dense(dense)):
            assert (ldlt(a.shifted(-_probe_margin(dense)).to_csr())
                    is not None) is pd

    @pytest.mark.parametrize("mode", ["NW", "QN"])
    def test_nan_in_hess_f_raises(self, mode):
        p = _dense_problem(np.array([[2.0, np.nan], [np.nan, 2.0]]))
        with pytest.raises(ValueError, match="finite"):
            hessian_model(p, p.x0, np.zeros(0), 10.0, mode)

    def test_qn_model_needs_no_dense_temporary(self):
        # The first model scans the frozen hess f; one n x n
        # float array is 8 MB.
        n = 1000
        p = _dense_problem(_frozen(4.0 * np.eye(n) - np.eye(n, k=1)
                                   - np.eye(n, k=-1)))
        memo = alm._SolveMemo()
        tracemalloc.start()
        try:
            model = hessian_model(p, p.x0, np.zeros(0), 10.0, "QN",
                                  _memo=memo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.sigma == 1e-8 and model.m_part.nnz == 2 * n - 1
        assert peak < 8 * n * n


def _restrict_model(model, free):
    """Principal-submatrix restriction of a full Hessian model to the
    variables the boolean mask `free` keeps, and the free rows of every
    column: the restrict-after-build path that hessian_model's `free`
    replaced, kept as its oracle."""
    idx = np.flatnonzero(free)
    cols_red = ColumnSet(idx.size, model.cols.columns[idx, :],
                         model.cols.signs, model.cols.labels,
                         model.cols.notes)
    return HessianModel(model.m_part.submatrix(idx), model.sigma,
                        cols_red)


def _same_bytes(a, b):
    """Models equal byte for byte, the layout of the columns included:
    BLAS products round differently on another layout."""
    return (_same_model(a, b) and a.cols.n == b.cols.n
            and a.cols.notes == b.cols.notes
            and a.cols.columns.strides == b.cols.columns.strides)


def _free_masks(n, rng):
    """Every single free variable, then random free sets."""
    for i in range(n):
        yield np.arange(n) == i
    for _ in range(4):
        mask = rng.random(n) < 0.6
        if mask.any():
            yield mask


class TestFreeModel:
    """hessian_model(..., free=idx) is the full model cut down to the
    free variables afterwards, byte for byte."""

    @staticmethod
    def _check(p, x, lam, mode, secant, mask, memo=None):
        got = hessian_model(p, x, lam, 10.0, mode, secant=secant,
                            free=np.flatnonzero(mask), _memo=memo)
        want = _restrict_model(
            hessian_model(p, x, lam, 10.0, mode, secant=secant), mask)
        assert _same_bytes(got, want)
        return got

    @pytest.mark.parametrize("mode, with_secant", [
        ("NW", False), ("QN", False), ("QN", True)])
    def test_grid_problems_match_the_oracle(self, mode, with_secant):
        rng = np.random.default_rng(17)
        labels = set()
        for name in ("EQ-QP", "INEQ-QP", "BOX-QP", "HS41", "HS48", "HS63",
                     "C4-SYN"):
            p = get_problem(name)
            for _ in range(3):
                x = rng.uniform(0.1, 1.0, p.n)
                lam = rng.standard_normal(p.m)
                s = rng.standard_normal(p.n)
                secant = ((s, s + 0.1 * rng.standard_normal(p.n))
                          if with_secant else None)
                for mask in _free_masks(p.n, rng):
                    model = self._check(p, x, lam, mode, secant, mask)
                    labels.update(model.cols.labels)
        assert (LABEL_BFGS_Y in labels) is with_secant

    def test_memoised_models_with_constraint_hessians_match(self):
        hess, cons = _memo_hessians()
        p = _memo_problem(lambda x: hess, lambda i, x: cons[i])
        memo = alm._SolveMemo()
        rng = np.random.default_rng(18)
        for x, lam, mode, secant in _model_args(p.n, p.m):
            for mask in _free_masks(p.n, rng):
                self._check(p, x, lam, mode, secant, mask, memo)

    @pytest.mark.parametrize("mode", ["NW", "QN"])
    def test_columns_near_null_on_the_free_rows_are_kept(self, mode):
        # Columns 0 and 1 live on the pinned variable 0 (column 1 up to
        # 1e-13 on a free row); only column 2 reaches the free rows.  The
        # other two stay, and change no preconditioner: their pivots are
        # their signs and their columns of b (nearly) zero.
        jac = np.zeros((4, 3))
        jac[0, :2] = 1.0
        jac[2, 1] = 1e-13
        jac[:, 2] = 1.0
        p = NlpProblem(
            name="NEAR-NULL", n=4, x0=np.zeros(4), kinds=("equality",) * 3,
            f=lambda x: 0.0, grad=lambda x: np.zeros(4),
            hess=lambda x: np.eye(4), cons=lambda x: jac.T @ x - 1.0,
            jac_cols=lambda x: jac, cons_hess=lambda i, x: np.zeros((4, 4)))
        mask = np.array([False, True, True, True])
        full = hessian_model(p, p.x0, np.zeros(3), 10.0, mode)
        assert sorted(full.cols.labels) == [0, 1, 2]
        model = self._check(p, p.x0, np.zeros(3), mode, None, mask)
        assert model.cols.labels == (2, 0, 1)
        assert model.cols.n == model.m_part.n == 3
        r = np.array([1.0, -2.0, 0.5])
        for kind in KINDS:
            aux = build_aux(model.m_part, kind, 0.0)
            want = StructuredPrecond(
                aux, model.cols.without_labels((0, 1))).apply(r)
            got = StructuredPrecond(aux, model.cols).apply(r)
            assert (np.linalg.norm(got - want)
                    <= 1e-14 * np.linalg.norm(want)), kind

    def test_hs63_nw_sum_cut_first_equals_the_full_sum_cut_down(self):
        # HS63's second constraint Hessian, 2 I, enters the Newton sum.
        # Cut to the free set before `plus`, each entry is summed as in
        # the full sum, so the model is that sum cut down, bit for bit;
        # lam_hat_2 = 1 at x0 cancels hess f's diagonal entries -2
        # exactly, and both ways drop them.
        p = get_problem("HS63")
        rng = np.random.default_rng(23)
        points = [(p.x0, np.array([0.0, 131.0]))]
        points += [(rng.uniform(0.5, 3.0, 3), 10.0 * rng.standard_normal(2))
                   for _ in range(4)]
        for x, lam in points:
            for pinned in range(3):
                mask = np.arange(3) != pinned
                model = self._check(p, x, lam, "NW", None, mask)
                cut_f = SparseSymmetricMatrix.from_dense(
                    p.hess(x)).submatrix(np.flatnonzero(mask))
                assert not _same_matrix(model.m_part, cut_f)
        cancelled = self._check(p, p.x0, points[0][1], "NW", None,
                                np.array([True, False, True]))
        assert cancelled.m_part.nnz == 1  # only the off-diagonal -1

    def test_a_single_free_variable(self):
        p = get_problem("HS41")
        for mode in ("NW", "QN"):
            model = self._check(p, p.x0, np.ones(p.m), mode, None,
                                np.arange(p.n) == 2)
            assert model.m_part.n == model.cols.n == 1
            assert model.cols.columns.shape == (1, model.cols.m)

    def test_qn_model_builds_no_matrix_of_the_full_order(self, monkeypatch):
        """Beyond the pattern of hess f that the memo keeps, every
        SparseSymmetricMatrix a QN model on a free set builds has the
        order of that set."""
        k = 8
        n = k * k
        rng = np.random.default_rng(19)
        jac = _quadrant_means(k)
        p = NlpProblem(
            name="QN-FREE", n=n, x0=np.zeros(n), kinds=("equality",) * 4,
            f=lambda x: 0.0, grad=lambda x: np.zeros(n),
            hess=lambda x, h=_frozen(_laplacian(k)): h,
            cons=lambda x: jac.T @ x - 1.0, jac_cols=lambda x: jac,
            cons_hess=None)
        # Both constructors: the public one and the unchecked one that
        # submatrix and shifted build through.
        orders = []
        init, trusted = (SparseSymmetricMatrix.__init__,
                         SparseSymmetricMatrix._trusted)

        def counted(self, order, *args):
            orders.append(int(order))
            init(self, order, *args)

        def counted_trusted(cls, order, *args):
            orders.append(int(order))
            return trusted(order, *args)
        monkeypatch.setattr(SparseSymmetricMatrix, "__init__", counted)
        monkeypatch.setattr(SparseSymmetricMatrix, "_trusted",
                            classmethod(counted_trusted))
        memo = alm._SolveMemo()
        sizes = []
        for _ in range(5):
            free = np.flatnonzero(rng.random(n) < 0.7)
            s = rng.standard_normal(n)
            hessian_model(p, rng.standard_normal(n), np.zeros(4), 10.0,
                          "QN", secant=(s, 4.0 * s), free=free, _memo=memo)
            sizes.append(free.size)
        assert orders.count(n) == 1
        assert set(orders) - {n} == set(sizes)


GRID_FIXTURE = Path(__file__).parent / "data" / "solve_grid.csv"
GRID_KEYS = ("problem", "solver", "mode", "policy")
GRID_COUNTS = ("status", "ItL", "Itin", "Itpd", "Itd", "AcM", "AcV")


def test_solve_grid_counts_unchanged():
    """Every problem x solver x mode x policy run keeps its status,
    iteration and refresh counts.  The fixture tests/data/solve_grid.csv
    is the output of

        almprec-bench solve --config tests/data/solve_grid.cfg \\
            | cut -d, -f1,4-13

    (`python -m almprec.cli` without an installed entry point).  One
    assert compares every row, so a failure lists all moved rows.  Every
    converged row must also reach its problem's documented f_star, to
    1e-4 relative (absolute below |f_star| = 1), so that a saddle point
    pinned in the fixture cannot pass."""
    with open(GRID_FIXTURE, newline="") as fh:
        want = list(csv.DictReader(fh))
    cfg = ExperimentConfig(kind="solve", problems=tuple(PROBLEM_BUILDERS),
                           solvers=alm.INNER_SOLVERS,
                           hessian_modes=alm.HESSIAN_MODES,
                           policies=alm.PRECOND_POLICIES)
    rows = run_alm_experiment(cfg)
    got = [{k: str(row[k]) for k in GRID_KEYS + GRID_COUNTS} for row in rows]
    assert len(got) == len(want) == 126
    moved = [",".join(ref.values()) + "  ->  " + ",".join(now.values())
             for ref, now in zip(want, got) if now != ref]
    assert not moved, "rows moved (fixture -> now):\n" + "\n".join(moved)
    missed = []
    for row in rows:
        f_star = get_problem(row["problem"]).f_star
        if (row["status"] == "converged" and not abs(row["f"] - f_star)
                <= 1e-4 * max(1.0, abs(f_star))):
            missed.append(",".join(row[k] for k in GRID_KEYS)
                          + ": f = %r, f_star = %r" % (row["f"], f_star))
    assert not missed, "converged away from f_star:\n" + "\n".join(missed)


SCALE_FIXTURE = Path(__file__).parent / "data" / "scale_grid.csv"


def test_scale_grid_counts_unchanged(monkeypatch):
    """The 20 solves at n = 1024 of tests/scale_grid.py keep their
    status, iteration and refresh counts, and each passes its
    generator's own check (`eq_qp_error` or `kkt_error`) at 1e-5, the
    perfbench bound.  The fixture tests/data/scale_grid.csv is the
    output of

        python tests/scale_grid.py > tests/data/scale_grid.csv

    which runs BLAS on one thread; the counts here come from the
    default thread count, and must agree with it."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent))
    import scale_grid

    with open(SCALE_FIXTURE, newline="") as fh:
        want = list(csv.DictReader(fh))
    got, errors = zip(*scale_grid.runs())
    assert len(got) == len(want) == 20
    moved = [",".join(ref.values()) + "  ->  " + ",".join(now.values())
             for ref, now in zip(want, got) if now != ref]
    assert not moved, "rows moved (fixture -> now):\n" + "\n".join(moved)
    failed = [",".join(row[k] for k in scale_grid.KEYS) + ": %.3g" % err
              for row, err in zip(got, errors) if not err <= 1e-5]
    assert not failed, "check above 1e-5:\n" + "\n".join(failed)


def _stub_problem(equality):
    """A stand-in problem: the mask is all the outer updates read."""
    return SimpleNamespace(equality=np.asarray(equality, dtype=bool))


def _patch_safeguard(monkeypatch, lam_min, lam_max, mu_max):
    """Set safeguard's bounds, alm.LAM_MIN, LAM_MAX and MU_MAX."""
    for name, value in (("LAM_MIN", lam_min), ("LAM_MAX", lam_max),
                        ("MU_MAX", mu_max)):
        monkeypatch.setattr(alm, name, value)


class TestOuterUpdates:
    def test_multiplier_update(self):
        eq = np.array([True, False])
        lam_hat = shifted_multipliers(_stub_problem(eq), None,
                                      np.array([1.0, 2.0]), 10.0,
                                      np.array([0.5, -0.5]))
        lam = safeguard(lam_hat, eq)
        assert lam[0] == 6.0
        assert lam[1] == 0.0  # 2 - 5 clipped

    def test_progress_measure_combines_blocks(self):
        _, v = update_penalty(10.0, None, np.array([0.2, -0.05]),
                              np.array([0.0, 10.0]), np.array([True, False]))
        # min(-g, mu/rho) = min(0.05, 1.0) = 0.05 -> equality part wins.
        assert v == pytest.approx(0.2)

    def test_penalty_kept_on_progress(self):
        rho, measure = update_penalty(10.0, 1.0, np.array([0.4]),
                                      np.zeros(1), np.array([True]))
        assert rho == 10.0 and measure == pytest.approx(0.4)

    def test_penalty_increased_on_stall(self):
        rho, _ = update_penalty(10.0, 1.0, np.array([0.9]), np.zeros(1),
                                np.array([True]))
        assert rho == 100.0

    def test_tau_and_gamma_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(alm, "TAU", 0.3)
        monkeypatch.setattr(alm, "GAMMA", 3.0)
        rho, _ = update_penalty(10.0, 1.0, np.array([0.4]), np.zeros(1),
                                np.array([True]))
        assert rho == 30.0  # 0.4 > TAU * 1.0

    def test_first_iteration_never_increases(self):
        rho, _ = update_penalty(10.0, None, np.array([100.0]), np.zeros(1),
                                np.array([True]))
        assert rho == 10.0

    def test_safeguard_clamps(self, monkeypatch):
        _patch_safeguard(monkeypatch, -5.0, 5.0, 3.0)
        lam = safeguard(np.array([-10.0, 10.0, 7.0]),
                        np.array([True, True, False]))
        np.testing.assert_allclose(lam, [-5.0, 5.0, 3.0])

    def test_kkt_multipliers_piecewise(self):
        """The reported multipliers are the shifted ones: zero on an
        inactive inequality, lam + rho c on an active one."""
        p = get_problem("INEQ-QP")
        x = np.array([5.0, 0.0])  # c = -4 inactive
        lam = shifted_multipliers(p, x, np.array([1.0]), 1.0)
        assert lam[0] == 0.0
        x = np.zeros(2)  # c = 1 active
        lam = shifted_multipliers(p, x, np.array([1.0]), 1.0)
        assert lam[0] == 2.0

    def test_kkt_residuals_at_solution(self):
        p = get_problem("EQ-QP")
        opt, compl, feas = kkt_residuals(p, np.array([0.0, 1.0]),
                                         np.array([2.0]))
        assert opt == pytest.approx(0.0, abs=1e-12)
        assert compl == pytest.approx(0.0, abs=1e-12)
        assert feas == pytest.approx(0.0, abs=1e-12)


# The outer step as alm_solve once took it, on the [eq] / [~eq] slices,
# kept as the reference the mask form must match bit for bit.

def _split_update_multipliers(lam_bar, mu_bar, rho, h_vals, g_vals):
    lam = lam_bar + rho * np.asarray(h_vals, dtype=np.float64)
    mu = np.maximum(0.0, mu_bar + rho * np.asarray(g_vals, dtype=np.float64))
    return lam, mu


def _split_update_penalty(rho, prev_measure, h_vals, g_vals, mu_bar, tau,
                          gamma):
    parts = [np.max(np.abs(h_vals), initial=0.0)]
    if len(g_vals):
        v = np.minimum(-np.asarray(g_vals), np.asarray(mu_bar) / rho)
        parts.append(np.max(np.abs(v), initial=0.0))
    measure = float(max(parts))
    if prev_measure is None or measure <= tau * prev_measure:
        return rho, measure
    return rho * gamma, measure


def _split_safeguard(lam, mu):
    lam_bar = np.clip(lam, alm.LAM_MIN, alm.LAM_MAX)
    return lam_bar, np.clip(mu, 0.0, alm.MU_MAX)


def _split_outer_step(c, lam_bar, rho, eq, prev_measure):
    lam_eq, mu_in = _split_update_multipliers(lam_bar[eq], lam_bar[~eq], rho,
                                              c[eq], c[~eq])
    rho, measure = _split_update_penalty(rho, prev_measure, c[eq], c[~eq],
                                         lam_bar[~eq], alm.TAU, alm.GAMMA)
    lam_eq, mu_in = _split_safeguard(lam_eq, mu_in)
    lam_bar = lam_bar.copy()
    lam_bar[eq] = lam_eq
    lam_bar[~eq] = mu_in
    return lam_bar, rho, measure


def _mask_outer_step(c, lam_bar, rho, eq, prev_measure):
    lam_hat = shifted_multipliers(_stub_problem(eq), None, lam_bar, rho, c)
    rho, measure = update_penalty(rho, prev_measure, c, lam_bar, eq)
    return safeguard(lam_hat, eq), rho, measure


def _outer_step_cases():
    """Seeded (c, lam_bar, rho, eq, prev_measure): signed zeros, shifts
    that cancel exactly, measures that tie tau * prev_measure, and values
    beyond every safeguard bound."""
    rng = np.random.default_rng(11)
    for m in (0, 1, 2, 5, 12):
        for trial in range(40):
            # Mixed kinds, except every third case: all of one kind.
            eq = rng.random(m) < (0.5 if trial % 3 else (trial % 2))
            rho = float(2.0 ** rng.integers(-3, 8))
            c = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 1, m)
            lam_bar = rng.standard_normal(m) * 10.0
            lam_bar[~eq] = np.abs(lam_bar[~eq])
            pick = rng.random((4, m))
            c[pick[0] < 0.2] = 0.0
            c[pick[1] < 0.1] = -0.0
            lam_bar[pick[2] < 0.2] = 0.0
            # c = k/8 and a power-of-two rho make lam_bar + rho c exact.
            tie = pick[3] < 0.3
            c[tie] = rng.integers(-16, 17, int(tie.sum())) / 8.0
            lam_bar[tie] = np.where(eq[tie], -rho * c[tie],
                                    np.abs(rho * c[tie]))
            for prev in (None, "tie", float(rng.uniform(0.0, 2.0))):
                yield c, lam_bar, rho, eq, prev


def test_mask_outer_step_matches_the_split_form(monkeypatch):
    # The default safeguard bounds, then tight ones.
    cases = ((alm.LAM_MIN, alm.LAM_MAX, alm.MU_MAX), (-5.0, 5.0, 3.0))
    ties = 0
    for c, lam_bar, rho, eq, prev in _outer_step_cases():
        for bounds in cases:
            _patch_safeguard(monkeypatch, *bounds)
            if prev == "tie":
                # measure == TAU * prev exactly: rho must stay.
                _, _, measure = _split_outer_step(c, lam_bar, rho, eq, None)
                prev = measure / alm.TAU
                ties += measure > 0.0
            want = _split_outer_step(c, lam_bar, rho, eq, prev)
            got = _mask_outer_step(c, lam_bar, rho, eq, prev)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]  # (rho, measure)
    assert ties > 0


class TestPrecondManager:
    def _model(self, scale=1.0, rho=4.0):
        p = get_problem("EQ-QP")
        return hessian_model(p, scale * np.ones(2), np.zeros(1), rho, "NW")

    def test_first_get_builds_everything(self):
        mgr = PrecondManager(AlmConfig())
        op = mgr.get(self._model())
        assert op is not None
        assert mgr.ac_m == 1 and mgr.ac_v == 0

    def test_once_policy_never_rebuilds(self):
        mgr = PrecondManager(AlmConfig(precond_policy="once"))
        mgr.get(self._model())
        mgr.notify_outer()
        mgr.get(self._model(rho=400.0))
        assert mgr.ac_m == 1 and mgr.ac_v == 0

    def test_once_policy_rebuilds_for_another_free_set_of_same_size(self):
        p = get_problem("HS41")
        mgr = PrecondManager(AlmConfig(precond_policy="once"))
        a, b = np.array([0, 1]), np.array([2, 3])
        for free in (a, a, b, b, None):
            reduced = hessian_model(p, p.x0, np.zeros(p.m), 10.0, "NW",
                                    free=free)
            mgr.get(reduced, free=free)
        # One build per change of the free set, none for a repeat.
        assert mgr.ac_m == 3 and mgr.ac_v == 0

    @pytest.mark.parametrize("label", [LABEL_BFGS_Y, LABEL_BFGS_W])
    def test_a_secant_breakdown_drops_the_pair_once(self, monkeypatch,
                                                    label):
        p = get_problem("EQ-QP")
        s = np.array([1.0, 0.5])
        model = hessian_model(p, np.ones(2), np.zeros(1), 4.0, "QN",
                              secant=(s, 3.0 * s))
        assert model.cols.labels[-2:] == (LABEL_BFGS_Y, LABEL_BFGS_W)
        built = []
        precond = alm.StructuredPrecond

        def breaking(aux, cols):
            built.append(cols.labels)
            if label in cols.labels:
                raise DenominatorBreakdownError("forced", label=label)
            return precond(aux, cols)
        monkeypatch.setattr(alm, "StructuredPrecond", breaking)
        mgr = PrecondManager(AlmConfig())
        mgr.get(model)
        assert built == [model.cols.labels, model.cols.labels[:-2]]
        assert mgr.column_drops == 1

    def test_every_outer_policy(self):
        mgr = PrecondManager(AlmConfig(precond_policy="every-outer"))
        mgr.notify_outer()
        mgr.get(self._model())
        mgr.get(self._model())  # same outer: no refresh
        assert mgr.ac_m == 1
        mgr.notify_outer()
        mgr.get(self._model())
        assert mgr.ac_m == 2

    def test_auto_policy_tracks_column_change(self):
        mgr = PrecondManager(AlmConfig(precond_policy="auto"))
        mgr.get(self._model(rho=4.0))
        mgr.get(self._model(rho=4.0))  # unchanged
        assert mgr.ac_m == 1 and mgr.ac_v == 0
        mgr.get(self._model(rho=400.0))  # columns rescale, M unchanged
        assert mgr.ac_m == 1 and mgr.ac_v == 1

    def test_aux_fallbacks_count_shifted_builds(self):
        """`aux_fallbacks` counts the shifted builds; no build falls back
        to `identity`, since `build_aux`'s last rung cannot fail."""
        model = self._model()
        indefinite = replace(model, m_part=SparseSymmetricMatrix.from_dense(
            np.diag([1.0, -2.0])))
        mgr = PrecondManager(AlmConfig(precond_policy="every-outer"))
        mgr.get(model)
        assert mgr._precond.aux.shift == 0.0 and mgr.aux_fallbacks == 0
        mgr.notify_outer()
        mgr.get(indefinite)
        assert mgr._precond.aux.kind == "incomplete-cholesky"
        assert mgr._precond.aux.shift == 2.2 and mgr.aux_fallbacks == 1

    def test_apply_matches_dense_inverse(self):
        mgr = PrecondManager(AlmConfig(aux_kind="exact"))
        model = self._model()
        op = mgr.get(model)
        r = np.array([1.0, -2.0])
        want = np.linalg.solve(dense_model(model), r)
        np.testing.assert_allclose(op.apply(r), want, rtol=1e-10)


class TestAlmSolve:
    @pytest.mark.parametrize("solver", ["truncated-newton", "spg", "pspg"])
    @pytest.mark.parametrize("mode", ["NW", "QN"])
    def test_equality_qp(self, solver, mode):
        p = get_problem("EQ-QP")
        rep = alm_solve(p, AlmConfig(inner_solver=solver,
                                     hessian_mode=mode))
        assert rep.converged
        np.testing.assert_allclose(rep.x, [0.0, 1.0], atol=1e-5)
        np.testing.assert_allclose(rep.multipliers, [2.0], atol=1e-4)
        assert rep.f_value == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("solver", ["truncated-newton", "spg", "pspg"])
    @pytest.mark.parametrize("mode", ["NW", "QN"])
    def test_inequality_qp(self, solver, mode):
        p = get_problem("INEQ-QP")
        rep = alm_solve(p, AlmConfig(inner_solver=solver,
                                     hessian_mode=mode))
        assert rep.converged
        np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-5)
        np.testing.assert_allclose(rep.multipliers, [2.0], atol=1e-4)

    def test_box_problem(self):
        rep = alm_solve(get_problem("BOX-QP"), AlmConfig())
        assert rep.converged
        np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-8)

    @pytest.mark.parametrize("name", ["HS41", "HS48", "HS63", "C4-SYN"])
    def test_library_problems_feasible_at_convergence(self, name):
        p = get_problem(name)
        rep = alm_solve(p, AlmConfig(inner_solver="spg"))
        assert rep.converged
        assert rep.kkt_feas <= 1e-6
        assert rep.kkt_opt <= 1e-6

    def test_hs41_reaches_its_minimiser_with_the_default_config(self):
        # HS41's NW models are indefinite; steps toward their stationary
        # points (MINRES's) end at the saddle x ~ 0 of 2 - x1 x2 x3, f = 2.
        p = get_problem("HS41")
        rep = alm_solve(p, AlmConfig())
        assert rep.converged
        np.testing.assert_allclose(rep.x, p.solution, atol=1e-6)
        assert rep.f_value == pytest.approx(p.f_star, rel=1e-8)

    @pytest.mark.parametrize("name", ["HS41", "HS63"])
    @pytest.mark.parametrize("mode", alm.HESSIAN_MODES)
    @pytest.mark.parametrize("policy", alm.PRECOND_POLICIES)
    def test_truncated_newton_never_reaches_minres(self, monkeypatch, name,
                                                   mode, policy):
        # HS41's and HS63's models meet negative curvature, the only ones
        # on the grid; truncated Newton stops CG there.
        def no_minres(*args, **kwargs):
            raise AssertionError("truncated Newton reached MINRES")
        steps = []
        tn_step = alm.truncated_newton_step

        def tracked_step(*args, **kwargs):
            steps.append(tn_step(*args, **kwargs))
            return steps[-1]
        monkeypatch.setattr(inner, "pminres", no_minres)
        monkeypatch.setattr(alm, "truncated_newton_step", tracked_step)
        rep = alm_solve(get_problem(name),
                        AlmConfig(hessian_mode=mode, precond_policy=policy))
        assert rep.converged
        assert any(s.negative_curvature for s in steps)

    def test_history_records_outer_iterations(self):
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig())
        assert len(rep.history) == rep.outer_iterations
        assert {"outer", "rho", "f", "opt", "feas"} <= set(rep.history[0])

    def test_max_outer_reported_as_no_convergence(self):
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig(max_outer=1))
        assert rep.status == "no convergence"
        assert rep.outer_iterations == 1

    def test_line_search_failure_stops_the_outer_loop(self, monkeypatch):
        """An inner solve that ends in a line-search failure, short of the
        KKT tolerances, ends the solve with that status."""
        descent = alm.projected_descent

        def failing(*args):
            return replace(descent(*args), status="line-search-failure")
        monkeypatch.setattr(alm, "projected_descent", failing)
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig())
        assert rep.status == "inner solver failure: line search"
        assert rep.outer_iterations == len(rep.history) == 1

    def test_pspg_provider_reuses_the_solver_gradient(self, monkeypatch):
        """The PSPG provider restricts with the gradient spg_solve holds
        and evaluates none itself."""
        in_provider = False
        provider_gets = grads_in_provider = 0
        get = alm._Subproblem.free_system
        eval_grad = alm.eval_al_grad

        def tracked_get(self, *args):
            nonlocal in_provider, provider_gets
            provider_gets += 1
            in_provider = True
            try:
                return get(self, *args)
            finally:
                in_provider = False

        def tracked_grad(*args):
            nonlocal grads_in_provider
            grads_in_provider += in_provider
            return eval_grad(*args)
        monkeypatch.setattr(alm._Subproblem, "free_system", tracked_get)
        monkeypatch.setattr(alm, "eval_al_grad", tracked_grad)
        rep = alm_solve(get_problem("HS41"), AlmConfig(inner_solver="pspg"))
        assert rep.converged
        assert provider_gets > 0
        assert grads_in_provider == 0

    def test_no_system_when_every_variable_is_pinned(self):
        """At the corner (1, 1) of BOX-QP the gradient pushes both
        variables out of the box: free_system builds no model and no
        preconditioner."""
        p = get_problem("BOX-QP")  # f = |x - (2, 2)|^2 on [0, 1]^2
        cfg = AlmConfig()
        manager = PrecondManager(cfg)
        sub = alm._Subproblem(p, np.zeros(0), alm.RHO1, cfg, manager,
                              alm._SolveMemo())
        z = np.ones(2)
        assert sub.free_system(z, sub.grad(z), None, None) is None
        assert manager.ac_m == manager.ac_v == 0

    def test_pspg_provider_gives_the_reduced_apply_and_its_index(self):
        """free_system(z, g, s, y) gives the preconditioner and the index
        `free` that both solvers scatter with: free indices when a bound
        is pinned, else slice(None), and an apply on the free variables
        only."""
        p = get_problem("BOX-QP")  # f = |x - (2, 2)|^2 on [0, 1]^2
        cfg = AlmConfig(inner_solver="pspg")
        sub = alm._Subproblem(p, np.zeros(0), alm.RHO1, cfg,
                              PrecondManager(cfg), alm._SolveMemo())
        z = np.array([1.0, 0.5])
        _, precond, free = sub.free_system(z, sub.grad(z), None, None)
        np.testing.assert_array_equal(free, [1])
        np.testing.assert_allclose(precond.apply(np.array([4.0])), [2.0])
        z = np.array([0.5, 0.5])
        _, precond, free = sub.free_system(z, sub.grad(z), None, None)
        assert free == slice(None)
        np.testing.assert_allclose(precond.apply(np.array([4.0, 2.0])),
                                   [2.0, 1.0])

    def test_truncated_newton_preconditions_the_reduced_system(
            self, monkeypatch):
        """With an exact auxiliary, the preconditioner TN gets on a step
        with a pinned bound inverts the model on the free variables, so
        PCG needs one iteration.  A masked full-space inverse needs more.
        The QP is convex, so its QN model is positive definite: no SPD
        auxiliary inverts an indefinite one."""
        n = 5
        q = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        c = np.array([3.0, -1.0, 2.0, -2.0, 1.0])
        a, zero = np.ones((n, 1)), np.zeros((n, n))
        p = NlpProblem(  # min x'Qx/2 - c'x, sum(x) = 2, 0 <= x <= 1
            name="BOUNDED-QP", n=n, x0=np.zeros(n), kinds=("equality",),
            f=lambda x: float(0.5 * x @ (q @ x) - c @ x),
            grad=lambda x: q @ x - c, hess=lambda x: q,
            cons=lambda x: a.T @ x - 2.0, jac_cols=lambda x: a,
            cons_hess=lambda i, x: zero, lower=np.zeros(n),
            upper=np.ones(n))
        masks = []
        steps = []
        mask = alm.active_bound_mask
        tn_step = alm.truncated_newton_step

        def tracked_mask(*args, **kwargs):
            masks.append(mask(*args, **kwargs))
            return masks[-1]

        def tracked_step(*args, **kwargs):
            step = tn_step(*args, **kwargs)
            steps.append((bool(np.any(masks[-1])), step))
            return step
        monkeypatch.setattr(alm, "active_bound_mask", tracked_mask)
        monkeypatch.setattr(alm, "truncated_newton_step", tracked_step)
        rep = alm_solve(p, AlmConfig(hessian_mode="QN", aux_kind="exact",
                                     precond_policy="auto"))
        assert rep.converged
        pinned = [step for active, step in steps if active]
        assert pinned
        assert [(s.negative_curvature, s.preconditioned, s.krylov_iterations)
                for s in pinned] == [(False, True, 1)] * len(pinned)

    def test_policies_agree_on_solution(self):
        results = []
        for policy in ("auto", "every-outer", "once"):
            rep = alm_solve(get_problem("C4-SYN"),
                            AlmConfig(precond_policy=policy))
            assert rep.converged
            results.append(rep.x)
        for x in results[1:]:
            np.testing.assert_allclose(x, results[0], atol=1e-5)

    def test_penalty_grows_when_feasibility_stalls(self, monkeypatch):
        """RHO1 and GAMMA are read when alm_solve runs: the first outer
        iteration runs at RHO1, and rho then grows by factors of GAMMA."""
        monkeypatch.setattr(alm, "RHO1", 1e-3)
        monkeypatch.setattr(alm, "GAMMA", 4.0)
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig(max_outer=30))
        rhos = [h["rho"] for h in rep.history]
        assert rhos[0] == 1e-3 and rep.rho_final > 1e-3
        assert {b / a for a, b in zip(rhos, rhos[1:])} <= {1.0, 4.0}

    @pytest.mark.parametrize("solver", ["truncated-newton", "pspg"])
    def test_every_variable_pinned_takes_the_plain_step(self, solver):
        """Both variables within ACTIVE_TOL of their upper bound, with the
        gradient pushing out, and the projected gradient 5e-11 above the
        inner tolerance: nothing is free, so the solver builds no model
        and no preconditioner and takes its unpreconditioned step."""
        p = replace(get_problem("BOX-QP"), x0=np.full(2, 1.0 - 5e-11))
        rep = alm_solve(p, AlmConfig(eps_opt=1e-12, inner_solver=solver))
        assert rep.converged and rep.ac_m == 0
        np.testing.assert_array_equal(rep.x, [1.0, 1.0])

    def test_config_rejects_max_outer_below_one(self):
        with pytest.raises(ValueError, match="max_outer must be at least 1"):
            AlmConfig(max_outer=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlmConfig(inner_solver="unknown")
        with pytest.raises(ValueError):
            AlmConfig(hessian_mode="unknown")
        with pytest.raises(ValueError):
            AlmConfig(precond_policy="unknown")

    @pytest.mark.parametrize("drop_tol", [-1.0, float("nan")])
    def test_config_rejects_bad_drop_tol(self, drop_tol):
        with pytest.raises(ValueError, match="drop tolerance"):
            AlmConfig(drop_tol=drop_tol)

    def test_config_rejects_unknown_aux_kind(self):
        for kind in ("nope", "exact-dense"):
            with pytest.raises(ValueError, match="auxiliary"):
                AlmConfig(aux_kind=kind)

    def test_inner_tol_defaults_to_tenth_of_eps_opt(self):
        cfg = AlmConfig(eps_opt=1e-4)
        assert cfg.inner_tol == pytest.approx(1e-5)
        with pytest.raises(TypeError):
            AlmConfig(inner_tol=1e-3)  # derived, not a setting

    # An infinite eps_opt would report HS48 converged at x0, where f = 84
    # and f* = 0.
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    @pytest.mark.parametrize("name", ["eps_opt", "eps_feas"])
    def test_config_rejects_a_tolerance_not_positive(self, name, value):
        with pytest.raises(SettingError,
                           match="^%s must be positive and finite, got %r$"
                           % (name, value)) as caught:
            AlmConfig(**{name: value})
        assert caught.value.field == name

    def test_config_has_only_the_callers_choices(self):
        assert [f.name for f in dataclasses.fields(AlmConfig)] == [
            "eps_opt", "eps_feas", "max_outer", "inner_solver",
            "hessian_mode", "aux_kind", "drop_tol", "precond_policy"]

    @pytest.mark.parametrize("field, value", [
        ("aux_kind", "ilu"), ("max_outer", 0), ("max_outer", 2.5),
        ("max_outer", True), ("drop_tol", True), ("eps_opt", True),
        ("eps_feas", True),
        # inner_tol, eps_opt / 10, underflows to 0.
        ("eps_opt", 5e-324)])
    def test_config_rejection_names_its_field(self, field, value):
        with pytest.raises(SettingError) as caught:
            AlmConfig(**{field: value})
        assert caught.value.field == field


def _subproblem_tolerances(monkeypatch, p, cfg):
    """Solve p and return (report, the projected-gradient tolerance each
    subproblem's inner solver received, the progress measure
    update_penalty returned after each outer iteration)."""
    tols, measures = [], []
    for name in ("projected_descent", "spg_solve"):
        def recording(*args, _solver=getattr(alm, name), **kwargs):
            tols.append(args[5])  # grad_tol
            return _solver(*args, **kwargs)
        monkeypatch.setattr(alm, name, recording)
    penalty = alm.update_penalty

    def recording_penalty(*args):
        rho, measure = penalty(*args)
        measures.append(measure)
        return rho, measure
    monkeypatch.setattr(alm, "update_penalty", recording_penalty)
    return alm_solve(p, cfg), tols, measures


class TestSubproblemTolerance:
    """The first subproblem is solved to AlmConfig.inner_tol, each later
    one to max(inner_tol, INNER_TOL_PER_MEASURE * measure) with the
    measure of the outer iteration before it."""

    @pytest.mark.parametrize("solver", alm.INNER_SOLVERS)
    @pytest.mark.parametrize("name", ["HS41", "C4-SYN"])
    def test_tolerance_follows_the_progress_measure(self, monkeypatch,
                                                    name, solver):
        cfg = AlmConfig(inner_solver=solver, hessian_mode="QN")
        rep, tols, measures = _subproblem_tolerances(
            monkeypatch, get_problem(name), cfg)
        assert rep.converged
        floor = cfg.inner_tol
        assert len(tols) == rep.outer_iterations == len(measures) + 1
        assert tols == [floor] + [
            max(floor, alm.INNER_TOL_PER_MEASURE * v) for v in measures]
        assert max(tols) > floor  # the rule loosened some subproblem

    def test_unconstrained_problem_stays_at_the_floor(self, monkeypatch):
        """BOX-QP has no constraints, so its measure is 0.  With a quartic
        objective and one SPG iteration per subproblem it takes every
        outer iteration it is given."""
        monkeypatch.setattr(inner, "MAX_ITERATIONS", 1)
        p = replace(get_problem("BOX-QP"),
                    f=lambda x: float(np.sum((x - 0.5) ** 4)),
                    grad=lambda x: 4.0 * (x - 0.5) ** 3)
        cfg = AlmConfig(inner_solver="spg", eps_opt=1e-8, max_outer=4)
        rep, tols, measures = _subproblem_tolerances(monkeypatch, p, cfg)
        assert rep.outer_iterations == 4
        assert measures == [0.0] * 4
        assert tols == [0.1 * 1e-8] * 4


def test_thresholds_default_values():
    assert (structured.DELTA_M, structured.DELTA_V, structured.EPS_V,
            structured.EPS_C) == (0.1, 0.01, 1e-3, 1e-3)
