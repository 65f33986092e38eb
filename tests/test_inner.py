"""Sub-problem solvers: truncated Newton step and (P)SPG."""

import numpy as np
import pytest

from almprec import inner
from almprec.krylov import IndefiniteOperatorError, pcg
from almprec.inner import (active_bound_mask, project_box, projected_descent,
                           spg_solve, truncated_newton_step)


def quad(a, b):
    """0.5 x'Ax - b'x helpers."""
    f = lambda x: 0.5 * float(x @ (a @ x)) - float(b @ x)
    g = lambda x: a @ x - b
    return f, g


class TestProjection:
    def test_project_box(self):
        lower = np.array([0.0, -1.0])
        upper = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            project_box(np.array([2.0, -3.0]), lower, upper), [1.0, -1.0])

    def test_active_bound_mask(self):
        lower = np.zeros(3)
        upper = np.ones(3)
        x = np.array([0.0, 1.0, 0.5])
        g = np.array([1.0, -1.0, 1.0])
        mask = active_bound_mask(x, g, lower, upper)
        # Pinned: at lower pushing down, at upper pushing up; free middle.
        np.testing.assert_array_equal(mask, [True, True, False])
        # Gradient pointing inward frees the bound components.
        g2 = np.array([-1.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            active_bound_mask(x, g2, lower, upper), [False, False, False])


class TestTruncatedNewtonStep:
    def test_spd_model_gives_newton_direction(self, monkeypatch):
        monkeypatch.setattr(inner, "KRYLOV_TOL", 1e-12)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 6 * np.eye(6)
        g = rng.standard_normal(6)
        step = truncated_newton_step(lambda v: a @ v, g, None)
        np.testing.assert_allclose(step.direction,
                                   np.linalg.solve(a, -g), rtol=1e-8)
        assert step.converged and not step.negative_curvature

    def test_indefinite_model_stops_at_negative_curvature(self):
        # CG's second direction on diag(1, -2, 3) from b = -g meets
        # p'Ap < 0: the step is the CG iterate, a descent direction, and
        # its work is CG's applies alone.  grad_tol 0.1 loosens CG's stop
        # to eta = theta * 0.1 / ||g||, far above KRYLOV_TOL and below the
        # relative residual 3.1 of CG's first iterate.
        a = np.diag([1.0, -2.0, 3.0])
        g = np.array([1.0, 1.0, 1.0])
        with pytest.raises(IndefiniteOperatorError) as raised:
            pcg(lambda v: a @ v, None, -g)
        for grad_tol in (0.0, 0.1):
            calls = []

            def model(v):
                calls.append(v)
                return a @ v
            step = truncated_newton_step(model, g, None, grad_tol)
            assert step.negative_curvature and not step.converged
            assert (not step.fallback_gradient
                    and float(step.direction @ g) < 0)
            assert (step.krylov_plain == len(calls)
                    == raised.value.applies == 2)
            np.testing.assert_array_equal(step.direction,
                                          raised.value.direction)

    def test_nan_direction_falls_back_to_gradient(self):
        g = np.array([1.0, -2.0, 0.5])
        step = truncated_newton_step(lambda v: np.full_like(v, np.nan), g,
                                     None)
        assert step.fallback_gradient
        np.testing.assert_array_equal(step.direction, -g)

    def test_spd_preconditioner_kept(self):
        a = np.diag([1.0, 100.0])
        g = np.array([1.0, 1.0])
        prec = lambda r: r / np.array([1.0, 100.0])
        step = truncated_newton_step(lambda v: a @ v, g, prec)
        assert step.preconditioned and step.krylov_iterations == 1


class TestForcingTerm:
    """CG's relative residual eta = max(KRYLOV_TOL, theta * min(1,
    grad_tol / ||g||)), theta = KRYLOV_TOL_PER_GRAD_TOL."""

    @staticmethod
    def spd_model(n=60, seed=4):
        """A seeded SPD matrix with eigenvalues spread over [1, 1e3], on
        which CG needs many iterations, and a gradient."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.geomspace(1.0, 1e3, n)) @ q.T
        return a, rng.standard_normal(n)

    def test_step_stops_at_theta_grad_tol(self):
        a, g = self.spd_model()
        grad_tol = 1e-3 * np.linalg.norm(g)
        tight = truncated_newton_step(lambda v: a @ v, g, None)
        loose = truncated_newton_step(lambda v: a @ v, g, None, grad_tol)
        assert tight.converged and loose.converged
        residual = np.linalg.norm(g + a @ loose.direction)
        assert residual <= inner.KRYLOV_TOL_PER_GRAD_TOL * grad_tol
        assert loose.krylov_plain < tight.krylov_plain

    @staticmethod
    def recorded_eta(monkeypatch, g, grad_tol):
        """The relative residual truncated_newton_step gives pcg."""
        tols = []

        def recording(*args, tol):
            tols.append(tol)
            return pcg(*args, tol=tol)
        monkeypatch.setattr(inner, "pcg", recording)
        truncated_newton_step(lambda v: 2.0 * v, g, None, grad_tol)
        return tols[0]

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_eta_never_below_the_floor(self, monkeypatch, scale):
        g = scale * np.ones(4)
        assert self.recorded_eta(monkeypatch, g, 1e-3) == inner.KRYLOV_TOL

    @pytest.mark.parametrize("grad_tol", [2.0, 1e3, np.inf])
    def test_eta_never_above_theta(self, monkeypatch, grad_tol):
        g = np.ones(4)  # ||g||_2 = 2 <= grad_tol
        assert (self.recorded_eta(monkeypatch, g, grad_tol)
                == inner.KRYLOV_TOL_PER_GRAD_TOL)

    def test_eta_between_is_theta_grad_tol_over_the_norm(self,
                                                          monkeypatch):
        g = np.ones(4)
        assert (self.recorded_eta(monkeypatch, g, 1e-2)
                == inner.KRYLOV_TOL_PER_GRAD_TOL * (1e-2 / 2.0))

    @pytest.mark.parametrize("g, grad_tol", [
        (np.zeros(4), 1e-2), (np.ones(4), 0.0)],
        ids=["zero-gradient", "default"])
    def test_floor_without_a_ratio(self, monkeypatch, g, grad_tol):
        assert self.recorded_eta(monkeypatch, g, grad_tol) == inner.KRYLOV_TOL


class TestTruncatedNewtonBreakdown:
    """A preconditioner breakdown drops the preconditioner; any other
    error of a Krylov solve propagates."""

    SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("a", [np.eye(2), np.diag([1.0, -1.0])])
    def test_breakdown_gives_an_unpreconditioned_step(self, a):
        # r'P^-1 r = 0 at r = e1, before any apply: pcg divided 0 by 0.
        step = truncated_newton_step(lambda v: a @ v, np.array([-1.0, 0.0]),
                                     lambda r: self.SWAP @ r)
        assert step.converged and not step.negative_curvature
        assert not step.preconditioned and not step.fallback_gradient
        np.testing.assert_array_equal(step.direction, [1.0, 0.0])

    def test_breakdown_then_negative_curvature(self):
        # The preconditioner turns indefinite on its second call, after
        # one preconditioned CG iteration; plain CG then meets p'Ap < 0
        # at its second apply and stops at its first iterate.  Each
        # first iterate leaves the relative residual 0.2, above the
        # eta = theta * 0.1 / ||b|| of grad_tol 0.1.
        a = np.diag([1.0, -1.0])
        b = np.array([1.0, 0.1])
        for grad_tol in (0.0, 0.1):
            sign = iter([1.0, -1.0])
            step = truncated_newton_step(lambda v: a @ v, -b,
                                         lambda r: next(sign) * r, grad_tol)
            assert step.negative_curvature and not step.preconditioned
            assert (step.krylov_precond, step.krylov_plain) == (1, 2)
            np.testing.assert_array_equal(
                step.direction,
                pcg(lambda v: a @ v, None, b, maxit=1).solution)

    def test_nan_preconditioner_is_dropped_at_once(self):
        a = np.diag([1.0, 2.0])
        step = truncated_newton_step(
            lambda v: a @ v, np.array([-1.0, -2.0]),
            lambda r: np.full_like(r, np.nan))
        # Plain CG then takes two iterations, one per distinct eigenvalue.
        assert not step.negative_curvature and not step.preconditioned
        assert step.converged and step.krylov_iterations == 2
        np.testing.assert_allclose(step.direction, [1.0, 1.0], rtol=1e-15)

    def test_value_error_of_the_preconditioner_propagates(self):
        # The second call, after CG's first iteration, raises.
        a = np.diag([1.0, 2.0])
        calls = []

        def precond(r):
            calls.append(r)
            if len(calls) > 1:
                raise ValueError("preconditioner failed")
            return r.copy()
        with pytest.raises(ValueError, match="preconditioner failed"):
            truncated_newton_step(lambda v: a @ v, -np.ones(2), precond)
        assert len(calls) == 2


class TestKrylovWorkBeforeAFallback:
    """The iterations a Krylov attempt made before it raised count in
    the step, with the preconditioned or the plain ones as that attempt
    ran."""

    # CG from b = (1, 0.1) on diag(1, -1) meets p'Ap < 0 at its second
    # apply: the second direction is A-conjugate to the first.
    A = np.diag([1.0, -1.0])
    GRAD = -np.array([1.0, 0.1])

    @pytest.mark.parametrize("precond", [None, lambda r: r.copy()],
                             ids=["plain", "preconditioned"])
    def test_cg_applies_count_at_the_exit(self, precond):
        with pytest.raises(IndefiniteOperatorError) as raised:
            pcg(lambda v: self.A @ v, precond, -self.GRAD)
        assert raised.value.applies == 2
        step = truncated_newton_step(lambda v: self.A @ v, self.GRAD,
                                     precond)
        assert step.negative_curvature
        assert step.krylov_iterations == 2
        assert (step.krylov_precond if precond else step.krylov_plain) == 2
        np.testing.assert_array_equal(step.direction,
                                      raised.value.direction)

    def test_preconditioned_applies_count_apart_from_the_rerun(self):
        # The preconditioner turns indefinite on its second call, after
        # one preconditioned CG iteration; plain CG then takes two.
        sign = iter([1.0, -1.0])
        a = np.diag([1.0, 2.0])
        step = truncated_newton_step(lambda v: a @ v, -np.ones(2),
                                     lambda r: next(sign) * r)
        assert not step.negative_curvature and not step.preconditioned
        assert (step.krylov_precond, step.krylov_plain) == (1, 2)


class TestSpg:
    def test_unconstrained_quadratic(self):
        rng = np.random.default_rng(1)
        a = np.diag([1.0, 4.0, 9.0])
        b = rng.standard_normal(3)
        f, g = quad(a, b)
        lower = np.full(3, -np.inf)
        upper = np.full(3, np.inf)
        res = spg_solve(f, g, lower, upper, np.zeros(3),
                        1e-8)
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, np.linalg.solve(a, b),
                                   rtol=1e-6, atol=1e-7)

    def test_box_constrained_solution_on_boundary(self):
        a = np.eye(2)
        b = np.array([2.0, 2.0])  # unconstrained minimizer (2, 2)
        f, g = quad(a, b)
        res = spg_solve(f, g, np.zeros(2), np.ones(2), np.zeros(2),
                        1e-9)
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_max_iterations_status(self, monkeypatch):
        monkeypatch.setattr(inner, "MAX_ITERATIONS", 2)
        a = np.diag([1.0, 1e6])
        f, g = quad(a, np.array([1.0, 1.0]))
        res = spg_solve(f, g, np.full(2, -np.inf), np.full(2, np.inf),
                        np.zeros(2), 1e-14)
        assert res.status == "max-iterations"
        assert res.iterations == 2

    def test_preconditioned_converges_faster_on_stiff_quadratic(self):
        diag = np.array([1.0, 1e4, 1e2, 10.0])
        a = np.diag(diag)
        b = np.ones(4)
        f, g = quad(a, b)
        lower = np.full(4, -np.inf)
        upper = np.full(4, np.inf)
        plain = spg_solve(f, g, lower, upper, np.zeros(4), 1e-8)

        def prov(z, g, s, y):
            return (lambda r: r / diag), slice(None)
        prec = spg_solve(f, g, lower, upper, np.zeros(4), 1e-8,
                         precond=prov)
        assert prec.status == "converged"
        assert prec.iterations <= plain.iterations
        assert prec.iterations <= 3

    def test_provider_preconditions_only_free_variables(self):
        # x1 is pinned at its lower bound 0 from the start; the reduced
        # apply sees only the free x0 and must never be handed x1.
        diag = np.array([50.0, 1.0])
        f, g = quad(np.diag(diag), np.array([50.0, -1.0]))
        seen = []

        def prov(z, g, s, y):
            free = np.flatnonzero(~active_bound_mask(z, g, lower, upper))
            seen.append(free.tolist())
            return (lambda r: r / diag[free]), free
        lower, upper = np.zeros(2), np.full(2, np.inf)
        res = spg_solve(f, g, lower, upper, np.array([3.0, 0.0]),
                        1e-9, precond=prov)
        assert res.status == "converged" and res.iterations == 1
        assert seen == [[0]]
        np.testing.assert_array_equal(res.x, [1.0, 0.0])

    def test_provider_without_free_variables_takes_the_spectral_step(self):
        """A provider that returns None, for no variable free, leaves
        every step to the plain spectral one: the trial points are those
        of spg_solve without a provider, bit for bit."""
        f, g, lower, upper, x0, _ = _pinning_problem(0)
        trials = {True: [], False: []}

        def recording(key):
            def f_eval(x):
                trials[key].append(x.tobytes())
                return f(x)
            return f_eval
        with_none = spg_solve(recording(True), g, lower, upper, x0, 1e-9,
                              precond=lambda z, g, s, y: None)
        plain = spg_solve(recording(False), g, lower, upper, x0, 1e-9)
        assert with_none.iterations == plain.iterations > 1
        assert trials[True] == trials[False]

    def test_no_mask_recomputed_with_a_provider(self, monkeypatch):
        calls = []
        monkeypatch.setattr(inner, "active_bound_mask",
                            lambda *args, **kwargs: calls.append(args))
        f, g, lower, upper, x0, a = _pinning_problem(0)
        res = spg_solve(f, g, lower, upper, x0, 1e-9,
                        precond=_ReducedInverse(a, lower, upper))
        assert res.iterations > 1
        assert calls == []

    @pytest.mark.parametrize("seed", range(6))
    def test_step_matches_the_masked_closure_bit_for_bit(self, seed,
                                                         monkeypatch):
        monkeypatch.setattr(inner, "MAX_ITERATIONS", 200)
        f, g, lower, upper, x0, a = _pinning_problem(seed)
        new_trials, old_trials = [], []

        def recording(trials):
            def f_eval(x):
                trials.append(x.tobytes())
                return f(x)
            return f_eval
        prov = _ReducedInverse(a, lower, upper)
        new = spg_solve(recording(new_trials), g, lower, upper, x0, 1e-10,
                        precond=prov)
        old = _masked_closure_spg(
            recording(old_trials), g, lower, upper, x0, 1e-10,
            _ReducedInverse(a, lower, upper))
        # The pinned set changes between steps that update alpha_p.
        changes = [i for i in range(1, len(prov.frees))
                   if prov.secant[i] and prov.frees[i] != prov.frees[i - 1]]
        assert changes
        assert new.status == old.status
        assert new.iterations == old.iterations
        assert new_trials == old_trials
        assert new.x.tobytes() == old.x.tobytes()

    def test_merit_evaluated_inside_the_box_only(self):
        # From x = 1 the first spectral step lands on the bound 0.1, and
        # 1.0 + (0.1 - 1.0) rounds to 0.09999999999999998, below it.
        lower = np.array([0.1])
        upper = np.array([2.0])
        f, g = quad(np.eye(1), np.zeros(1))

        def f_inside(x):
            if np.any(x < lower) or np.any(x > upper):
                raise AssertionError("merit evaluated outside the box: %r"
                                     % x.tolist())
            return f(x)
        res = spg_solve(f_inside, g, lower, upper, np.array([1.0]),
                        1e-9)
        assert res.status == "converged"
        np.testing.assert_array_equal(res.x, lower)

    def test_starts_from_projected_point(self):
        a = np.eye(1)
        f, g = quad(a, np.array([0.5]))
        res = spg_solve(f, g, np.zeros(1), np.ones(1), np.array([10.0]),
                        1e-9)
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, [0.5], atol=1e-8)

    def test_f_value_reported(self):
        a = np.eye(2)
        f, g = quad(a, np.zeros(2))
        res = spg_solve(f, g, np.full(2, -np.inf), np.full(2, np.inf),
                        np.ones(2), 1e-10)
        assert res.f_value == pytest.approx(0.0, abs=1e-12)


def _pinning_problem(seed):
    """(f, g, lower, upper, x0, A): a seeded convex quadratic on a box
    whose pinned set changes as the iteration proceeds."""
    rng = np.random.default_rng(seed)
    n = 40
    q = rng.standard_normal((n, n))
    a = q @ q.T / n + np.diag(rng.uniform(0.1, 10.0, n))
    b = 3.0 * rng.standard_normal(n)
    lower = np.full(n, -0.5)
    upper = np.full(n, 0.5)
    f, g = quad(a, b)
    return f, g, lower, upper, rng.uniform(-0.5, 0.5, n), a


class _ReducedInverse:
    """A provider: the inverse of diag(A) + 0.1 A on the free variables,
    an inexact metric so that alpha_p moves off 1."""

    def __init__(self, a, lower, upper):
        self.a = a
        self.lower, self.upper = lower, upper
        self.frees, self.secant = [], []

    def __call__(self, z, g, s, y):
        act = active_bound_mask(z, g, self.lower, self.upper)
        free = np.flatnonzero(~act) if act.any() else slice(None)
        self.frees.append(np.flatnonzero(~act).tolist())
        self.secant.append(s is not None)
        a = self.a[free][:, free]
        m = np.diag(np.diag(a)) + 0.1 * a
        return (lambda r: np.linalg.solve(m, r)), free


def _masked_closure_spg(f_eval, grad_eval, lower, upper, x0, grad_tol,
                        provider):
    """The PSPG step as spg_solve took it through a full-space apply: the
    provider's reduced apply scattered back with zeros on the pinned
    components, the active-bound mask recomputed, and the gradient masked
    before and after the apply.  alpha_p's y'Dy is an n-length product
    with the previous step's scatter."""
    alpha_bb, alpha_p, apply_p = None, 1.0, None

    def scatter(apply, free, n):
        def full(r):
            out = np.zeros(n)
            out[free] = apply(np.asarray(r, dtype=np.float64)[free])
            return out
        return full

    def direction(x, g, pg, s, y):
        nonlocal alpha_bb, alpha_p, apply_p
        if s is None:
            alpha_bb = min(inner.ALPHA_MAX,
                           max(inner.ALPHA_MIN, 1.0 / np.max(np.abs(pg))))
        else:
            sy, ss = float(s @ y), float(s @ s)
            if sy > 1e-14 * max(ss, 1e-300):
                alpha_bb = float(np.clip(ss / sy, inner.ALPHA_MIN,
                                         inner.ALPHA_MAX))
                if apply_p is not None:
                    ypy = float(y @ apply_p(y))
                    if ypy > 0.0:
                        alpha_p = float(np.clip(sy / ypy, 1e-2, 1e2))
            elif sy <= 0.0 and ss > 0.0:
                alpha_bb = inner.ALPHA_MAX
        apply, free = provider(x, g, s, y)
        apply_p = apply if isinstance(free, slice) \
            else scatter(apply, free, x.size)
        act = active_bound_mask(x, g, lower, upper)
        pgrad = apply_p(np.where(act, 0.0, g))
        pgrad = np.where(act, g, pgrad)
        d = project_box(x - alpha_p * pgrad, lower, upper) - x
        if float(d @ g) >= 0.0:
            d = project_box(x - alpha_bb * g, lower, upper) - x
        return d

    return projected_descent(f_eval, grad_eval, lower, upper, x0, grad_tol,
                             direction)


def _steepest(x, g, pg, s, y):
    return pg


class TestProjectedDescent:
    def test_direction_gets_the_previous_step(self):
        a = np.diag([1.0, 0.5, 0.8])
        f, g = quad(a, np.ones(3))
        calls = []

        def direction(x, grad, pg, s, y):
            calls.append((x.copy(), grad.copy(), s, y))
            return pg
        res = projected_descent(f, g, np.full(3, -np.inf), np.full(3, np.inf),
                                np.zeros(3), 1e-8,
                                direction)
        assert res.status == "converged" and len(calls) == res.iterations
        assert len(calls) > 2
        assert calls[0][2] is None and calls[0][3] is None
        for (x0, g0, _, _), (x1, g1, s, y) in zip(calls, calls[1:]):
            np.testing.assert_array_equal(s, x1 - x0)
            np.testing.assert_array_equal(y, g1 - g0)

    def test_converged_status(self):
        f, g = quad(np.eye(2), np.array([0.5, 2.0]))
        res = projected_descent(f, g, np.zeros(2), np.ones(2), np.zeros(2),
                                1e-9, _steepest)
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, [0.5, 1.0], atol=1e-9)
        assert res.f_value == f(res.x)

    def test_max_iterations_status(self, monkeypatch):
        monkeypatch.setattr(inner, "MAX_ITERATIONS", 2)
        f, g = quad(np.diag([1.0, 1e6]), np.ones(2))
        res = projected_descent(f, g, np.full(2, -np.inf), np.full(2, np.inf),
                                np.zeros(2), 1e-14, _steepest)
        assert res.status == "max-iterations" and res.iterations == 2

    def test_line_search_failure_status(self, monkeypatch):
        monkeypatch.setattr(inner, "MAX_BACKTRACKS", 5)
        x0 = np.array([1.0, -1.0])
        g = lambda x: np.array([1.0, 2.0])

        def f(x):
            # Lowest at the start point, higher everywhere else.
            return 0.0 if np.array_equal(x, x0) else 1.0
        res = projected_descent(f, g, np.full(2, -np.inf), np.full(2, np.inf),
                                x0, 1e-7, _steepest)
        assert res.status == "line-search-failure"
        assert res.iterations == 1
        np.testing.assert_array_equal(res.x, x0)
        assert res.f_value == 0.0

    def test_ascent_direction_is_retried_along_projected_gradient(self):
        """An ascent direction fails its search at once, without a merit
        evaluation, and the retry along pg then takes every step."""
        a = np.diag([1.0, 4.0])
        f, g = quad(a, np.array([1.0, -3.0]))
        lower, upper = np.array([0.0, -0.5]), np.full(2, np.inf)
        runs = []
        for direction in (_steepest, lambda x, grad, pg, s, y: grad):
            evaluated = []

            def f_logged(x):
                evaluated.append(x.copy())
                return f(x)
            res = projected_descent(f_logged, g, lower, upper, np.ones(2),
                                    1e-9, direction)
            runs.append((res, evaluated))
        (want, want_evals), (got, got_evals) = runs
        assert got.status == want.status == "converged"
        assert got.iterations == want.iterations
        np.testing.assert_array_equal(got.x, want.x)
        assert len(got_evals) == len(want_evals)
        for u, v in zip(got_evals, want_evals):
            np.testing.assert_array_equal(u, v)


class TestGradTol:
    @pytest.mark.parametrize("solve", [
        spg_solve, lambda *args: projected_descent(*args, _steepest)],
        ids=["spg_solve", "projected_descent"])
    def test_rejects_a_tolerance_not_positive(self, solve):
        f, g = quad(np.eye(2), np.ones(2))
        for value in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="^grad_tol must be positive"):
                solve(f, g, np.zeros(2), np.ones(2), np.zeros(2), value)
