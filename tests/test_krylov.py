"""Conjugate gradient and MINRES solvers."""

import numpy as np
import pytest

from almprec.krylov import (IndefiniteOperatorError,
                            PreconditionerBreakdownError, pcg, pminres)

# P^-1 = [[0, 1], [1, 0]]: r'P^-1 r = 0 at r = e1, and -2 at r = (1, -1).
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestPcg:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            a = random_spd(rng, n)
            xstar = rng.standard_normal(n)
            b = a @ xstar
            rep = pcg(lambda v: a @ v, None, b, tol=1e-10)
            assert rep.converged
            np.testing.assert_allclose(rep.solution, xstar,
                                       rtol=1e-6, atol=1e-8)

    def test_identity_converges_in_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        rep = pcg(lambda v: v, None, b)
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b)

    def test_exact_preconditioner_one_iteration(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 8)
        inv = np.linalg.inv(a)
        b = rng.standard_normal(8)
        rep = pcg(lambda v: a @ v, lambda r: inv @ r, b, tol=1e-8)
        assert rep.converged and rep.iterations == 1

    def test_zero_rhs(self):
        rep = pcg(lambda v: v, None, np.zeros(4))
        assert rep.converged and rep.iterations == 0

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(IndefiniteOperatorError, match="indefinite"):
            pcg(lambda v: a @ v, None, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("precond", [None, lambda r: 2.0 * r],
                             ids=["plain", "preconditioned"])
    def test_later_negative_curvature_carries_the_iterate(self, precond):
        # The second direction on diag(1, -1) from b = (1, 0.1) has
        # p'Ap < 0; the error carries x after the first iteration.
        a = np.diag([1.0, -1.0])
        b = np.array([1.0, 0.1])
        with pytest.raises(IndefiniteOperatorError) as raised:
            pcg(lambda v: a @ v, precond, b)
        x1 = pcg(lambda v: a @ v, precond, b, maxit=1).solution
        assert raised.value.direction.tobytes() == x1.tobytes()
        assert float(b @ x1) > 0.0  # a descent direction of the model

    @pytest.mark.parametrize("precond, want", [
        (None, [1.0, 0.5]), (lambda r: np.array([2.0, 4.0]) * r, [2.0, 2.0])],
        ids=["plain", "preconditioned"])
    def test_first_negative_curvature_carries_the_preconditioned_rhs(
            self, precond, want):
        # p = P^-1 b meets p'Ap < 0 at once, before x leaves zero.
        a = np.diag([1.0, -8.0])
        b = np.array([1.0, 0.5])
        with pytest.raises(IndefiniteOperatorError) as raised:
            pcg(lambda v: a @ v, precond, b)
        assert raised.value.applies == 1
        np.testing.assert_array_equal(raised.value.direction, want)

    def test_maxit_returns_unconverged(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 30)
        b = rng.standard_normal(30)
        rep = pcg(lambda v: a @ v, None, b, tol=1e-14, maxit=2)
        assert not rep.converged and rep.iterations == 2

    def test_residual_history_monitors_true_residual(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 6)
        b = rng.standard_normal(6)
        rep = pcg(lambda v: a @ v, None, b, tol=1e-10)
        assert rep.residual_history[0] == pytest.approx(np.linalg.norm(b))
        final = np.linalg.norm(b - a @ rep.solution)
        assert final <= 1e-8 * np.linalg.norm(b)

    def test_accepts_apply_object(self):
        class Op:
            def apply(self, v):
                return 2.0 * v
        rep = pcg(Op(), None, np.ones(3))
        np.testing.assert_allclose(rep.solution, 0.5 * np.ones(3))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            pcg(lambda v: v, None, np.ones(2), tol=0.0)


@pytest.mark.parametrize("solver", [pcg, pminres])
def test_nan_tol_is_rejected(solver):
    # A NaN tol fails every stopping test: CG would run past its exact
    # solution to p'Ap = 0 on diag(1, 2, 3).
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="tol must be positive"):
        solver(lambda v: a @ v, None, np.ones(3), tol=float("nan"))


@pytest.mark.parametrize("solver", [pcg, pminres])
@pytest.mark.parametrize("name, value", [
    ("tol", True), ("tol", False), ("maxit", True), ("maxit", False),
    ("maxit", 2.5), ("maxit", 2.0)])
def test_a_bool_or_fractional_argument_is_rejected(solver, name, value):
    # A bool is an int: tol=True would stop at once, maxit=True after
    # one iteration; a float maxit would fail inside range().
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^%s must be" % name):
        solver(lambda v: a @ v, None, np.ones(3), **{name: value})


def test_a_numpy_integer_maxit_is_accepted():
    rep = pcg(lambda v: 2.0 * v, None, np.ones(3), maxit=np.int64(5))
    assert rep.converged


class TestPminres:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 10)
        xstar = rng.standard_normal(10)
        rep = pminres(lambda v: a @ v, None, a @ xstar, tol=1e-10)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, xstar, rtol=1e-6,
                                   atol=1e-8)

    def test_solves_indefinite_system(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = rng.standard_normal(8)
            d[np.abs(d) < 0.3] = 1.0  # keep away from singular
            a = np.diag(d)
            xstar = rng.standard_normal(8)
            rep = pminres(lambda v: a @ v, None, a @ xstar, tol=1e-10)
            assert rep.converged
            np.testing.assert_allclose(rep.solution, xstar, rtol=1e-5,
                                       atol=1e-7)

    def test_preconditioned_indefinite(self):
        a = np.diag([3.0, -2.0, 5.0, -1.0])
        prec = np.diag(1.0 / np.abs(np.diag(a)))
        xstar = np.array([1.0, 2.0, -1.0, 0.5])
        rep = pminres(lambda v: a @ v, lambda r: prec @ r, a @ xstar,
                      tol=1e-10)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, xstar, rtol=1e-8)

    def test_indefinite_preconditioner_rejected(self):
        a = np.eye(2)
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="not positive definite"):
            pminres(lambda v: a @ v, lambda r: bad @ r,
                    np.array([0.0, 1.0]))

    def test_zero_rhs(self):
        rep = pminres(lambda v: v, None, np.zeros(3))
        assert rep.converged and rep.iterations == 0

    def test_true_residual_convergence(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 7)
        b = rng.standard_normal(7)
        rep = pminres(lambda v: a @ v, None, b, tol=1e-9)
        assert np.linalg.norm(b - a @ rep.solution) \
            <= 1e-9 * np.linalg.norm(b)

    @pytest.mark.parametrize("maxit", [0, -1])
    def test_rejects_maxit_below_one(self, maxit):
        with pytest.raises(ValueError, match="maxit must be >= 1"):
            pminres(lambda v: v, None, np.ones(2), maxit=maxit)

    @pytest.mark.filterwarnings("error")
    def test_exact_lanczos_breakdown_stops_with_the_solution(self):
        # Two distinct eigenvalues: the Lanczos process ends exactly
        # (beta = 0) after two steps, before a tol of 1e-300 is met.
        a = np.diag([2.0, 2.0, 4.0, 4.0])
        b = np.ones(4)
        rep = pminres(lambda v: a @ v, None, b, tol=1e-300, maxit=5)
        assert rep.iterations == 2 and not rep.converged
        np.testing.assert_allclose(rep.solution, [0.5, 0.5, 0.25, 0.25],
                                   rtol=1e-15)
        assert np.linalg.norm(b - a @ rep.solution) <= 1e-15


class TestPreconditionerBreakdown:
    """Both solvers raise PreconditionerBreakdownError when r'P^-1 r is
    not positive for a nonzero r, and only then."""

    @pytest.mark.parametrize("solver", [pcg, pminres])
    def test_zero_preconditioned_norm_raises(self, solver):
        # pcg divided 0 by 0; pminres reported convergence at x = 0.
        with pytest.raises(PreconditionerBreakdownError, match="r'P"):
            solver(lambda v: v, lambda r: SWAP @ r, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("solver", [pcg, pminres])
    def test_nan_preconditioner_stops_at_once(self, solver):
        calls = []

        def nan_precond(r):
            calls.append(r)
            return np.full_like(r, np.nan)
        with pytest.raises(PreconditionerBreakdownError):
            solver(lambda v: 2.0 * v, nan_precond, np.ones(5))
        assert len(calls) == 1

    def test_minres_breakdown_mid_run_raises(self):
        # r'P^-1 r = 2 at b = (1, 1), then -1 at the next Lanczos vector.
        a = np.diag([1.0, -1.0])
        with pytest.raises(PreconditionerBreakdownError):
            pminres(lambda v: a @ v, lambda r: SWAP @ r, np.ones(2))

    @pytest.mark.filterwarnings("error")
    def test_preconditioned_lanczos_end_is_a_normal_stop(self):
        # The exact Lanczos end of TestPminres with an SPD preconditioner:
        # its residual vector is zero, so beta = 0 is no breakdown.
        a = np.diag([2.0, 2.0, 4.0, 4.0])
        rep = pminres(lambda v: a @ v, lambda r: r.copy(), np.ones(4),
                      tol=1e-300, maxit=5)
        assert rep.iterations == 2 and not rep.converged
        np.testing.assert_allclose(rep.solution, [0.5, 0.5, 0.25, 0.25],
                                   rtol=1e-15)

    @pytest.mark.parametrize("solver", [pcg, pminres])
    def test_unpreconditioned_nan_operator_does_not_raise(self, solver):
        rep = solver(lambda v: np.full_like(v, np.nan), None, np.ones(3),
                     maxit=4)
        assert not rep.converged


def _counted(a, calls):
    """The operator v -> a v, recording each call in `calls`."""
    def apply(v):
        calls.append(v)
        return a @ v
    return apply


class TestAppliesBeforeARaise:
    """A breakdown error carries the operator applies of the recurrence
    made before it: one per iteration begun, the failing one included."""

    def test_cg_counts_the_apply_that_met_negative_curvature(self):
        # The first direction has p'Ap > 0; the second, A-conjugate to
        # it, has p'Ap < 0, since diag(1, -1) has one negative eigenvalue.
        calls = []
        with pytest.raises(IndefiniteOperatorError) as raised:
            pcg(_counted(np.diag([1.0, -1.0]), calls), None,
                np.array([1.0, 0.1]))
        assert raised.value.applies == len(calls) == 2

    def test_cg_breakdown_counts_the_iterations_before_it(self):
        # A preconditioner that turns indefinite on its second call.
        calls, sign = [], iter([1.0, -1.0])
        with pytest.raises(PreconditionerBreakdownError) as raised:
            pcg(_counted(np.diag([1.0, 2.0]), calls),
                lambda r: next(sign) * r, np.ones(2))
        assert raised.value.applies == len(calls) == 1

    def test_breakdown_before_any_apply_counts_none(self):
        for solver in (pcg, pminres):
            calls = []
            with pytest.raises(PreconditionerBreakdownError) as raised:
                solver(_counted(np.eye(2), calls), lambda r: SWAP @ r,
                       np.array([1.0, 0.0]))
            assert raised.value.applies == len(calls) == 0

    def test_minres_counts_its_lanczos_steps(self):
        # The breakdown of test_minres_breakdown_mid_run_raises, in the
        # first Lanczos step, after its one apply.
        calls = []
        with pytest.raises(PreconditionerBreakdownError) as raised:
            pminres(_counted(np.diag([1.0, -1.0]), calls),
                    lambda r: SWAP @ r, np.ones(2))
        assert raised.value.applies == len(calls) == 1
