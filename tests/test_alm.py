"""Augmented Lagrangian outer loop: merit functions, updates, models and
the solver driver."""

import numpy as np
import pytest

from almprec.alm import (AlmConfig, PrecondManager, alm_solve, eval_al,
                         eval_al_grad, hessian_model, kkt_multipliers,
                         kkt_residuals, progress_measure, safeguard,
                         shifted_multipliers, update_multipliers,
                         update_penalty)
from almprec.problems import get_problem, problem_names
from almprec.structured import UpdateThresholds


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
            got = model.to_dense()
            # The models coincide wherever no inequality switches
            # activation across the stencil; these points are generic.
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-4)

    def test_qn_m_block_is_spd(self):
        rng = np.random.default_rng(2)
        for name in ("HS41", "HS63"):
            p = get_problem(name)
            x = rng.standard_normal(p.n)
            model = hessian_model(p, x, np.zeros(p.m), 10.0, "QN")
            eigs = np.linalg.eigvalsh(model.m_part.to_dense())
            assert eigs.min() > 0.0

    def test_qn_secant_shift_uses_curvature_gap(self):
        p = get_problem("EQ-QP")
        x = np.zeros(2)
        s = np.array([1.0, 0.0])
        y = np.array([5.0, 0.0])
        model = hessian_model(p, x, np.zeros(1), 1.0, "QN", secant=(s, y))
        # Gauss-Newton apply: hess f + rho jac jac' -> (2 + 1) on s.
        assert model.sigma == pytest.approx((5.0 - 3.0) / 1.0)


class TestOuterUpdates:
    def test_multiplier_update(self):
        lam, mu = update_multipliers(np.array([1.0]), np.array([2.0]),
                                     10.0, np.array([0.5]),
                                     np.array([-0.5]))
        assert lam[0] == 6.0
        assert mu[0] == 0.0  # 2 - 5 clipped

    def test_progress_measure_combines_blocks(self):
        v = progress_measure(np.array([0.2]), np.array([-0.05]),
                             np.array([10.0]), 10.0)
        # min(-g, mu/rho) = min(0.05, 1.0) = 0.05 -> equality part wins.
        assert v == pytest.approx(0.2)

    def test_penalty_kept_on_progress(self):
        rho, measure = update_penalty(10.0, 1.0, np.array([0.4]),
                                      np.zeros(0), np.zeros(0), 0.5, 10.0)
        assert rho == 10.0 and measure == pytest.approx(0.4)

    def test_penalty_increased_on_stall(self):
        rho, _ = update_penalty(10.0, 1.0, np.array([0.9]), np.zeros(0),
                                np.zeros(0), 0.5, 10.0)
        assert rho == 100.0

    def test_first_iteration_never_increases(self):
        rho, _ = update_penalty(10.0, None, np.array([100.0]), np.zeros(0),
                                np.zeros(0), 0.5, 10.0)
        assert rho == 10.0

    def test_safeguard_clamps(self):
        cfg = AlmConfig(lam_min=-5.0, lam_max=5.0, mu_max=3.0)
        lam, mu = safeguard(np.array([-10.0, 10.0]), np.array([7.0]), cfg)
        np.testing.assert_allclose(lam, [-5.0, 5.0])
        np.testing.assert_allclose(mu, [3.0])

    def test_kkt_multipliers_piecewise(self):
        p = get_problem("INEQ-QP")
        x = np.array([5.0, 0.0])  # c = -4 inactive
        lam = kkt_multipliers(p, x, np.array([1.0]), 1.0)
        assert lam[0] == 0.0
        x = np.zeros(2)  # c = 1 active
        lam = kkt_multipliers(p, x, np.array([1.0]), 1.0)
        assert lam[0] == 2.0

    def test_kkt_residuals_at_solution(self):
        p = get_problem("EQ-QP")
        opt, compl, feas = kkt_residuals(p, np.array([0.0, 1.0]),
                                         np.array([2.0]))
        assert opt == pytest.approx(0.0, abs=1e-12)
        assert compl == pytest.approx(0.0, abs=1e-12)
        assert feas == pytest.approx(0.0, abs=1e-12)


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

    def test_apply_matches_dense_inverse(self):
        mgr = PrecondManager(AlmConfig(aux_kind="exact-dense"))
        model = self._model()
        op = mgr.get(model)
        r = np.array([1.0, -2.0])
        want = np.linalg.solve(model.to_dense(), r)
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

    def test_history_records_outer_iterations(self):
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig())
        assert len(rep.history) == rep.outer_iterations
        assert {"outer", "rho", "f", "opt", "feas"} <= set(rep.history[0])

    def test_max_outer_reported_as_no_convergence(self):
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig(max_outer=1))
        assert rep.status == "no convergence"
        assert rep.outer_iterations == 1

    def test_policies_agree_on_solution(self):
        results = []
        for policy in ("auto", "every-outer", "once"):
            rep = alm_solve(get_problem("C4-SYN"),
                            AlmConfig(precond_policy=policy))
            assert rep.converged
            results.append(rep.x)
        for x in results[1:]:
            np.testing.assert_allclose(x, results[0], atol=1e-5)

    def test_penalty_grows_when_feasibility_stalls(self):
        rep = alm_solve(get_problem("EQ-QP"), AlmConfig(rho1=1e-3,
                                                        max_outer=30))
        assert rep.rho_final > 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlmConfig(tau=1.5)
        with pytest.raises(ValueError):
            AlmConfig(inner_solver="unknown")
        with pytest.raises(ValueError):
            AlmConfig(gamma=1.0)

    @pytest.mark.parametrize("drop_tol", [-1.0, float("nan")])
    def test_config_rejects_bad_drop_tol(self, drop_tol):
        with pytest.raises(ValueError, match="drop tolerance"):
            AlmConfig(drop_tol=drop_tol)

    def test_config_rejects_unknown_aux_kind(self):
        with pytest.raises(ValueError, match="auxiliary"):
            AlmConfig(aux_kind="nope")

    def test_inner_tol_defaults_to_tenth_of_eps_opt(self):
        cfg = AlmConfig(eps_opt=1e-4)
        assert cfg.effective_inner_tol == pytest.approx(1e-5)
        cfg = AlmConfig(inner_tol=1e-3)
        assert cfg.effective_inner_tol == 1e-3


def test_thresholds_default_values():
    th = UpdateThresholds()
    assert (th.delta_m, th.delta_v, th.eps_v, th.eps_c) \
        == (0.1, 0.01, 1e-3, 1e-3)
