"""Acceptance suite.

Each test is one acceptance criterion, checked at its stated tolerance,
and prints a single PASS/FAIL line.  Criterion 2 checks the advertised
rank-1 similarity form for the preconditioned spectrum verbatim; that
form does not hold for approximate auxiliary blocks (the corrected
identity is exercised in test_structured.py), so the criterion is
expected to fail and is kept as an honest red.  Criterion 2b checks
the spectral statement that does hold for an inexact SPD auxiliary: an
enclosure of the spectrum that does not depend on rho.
"""

import time

import numpy as np
import pytest

from almprec.alm import (AlmConfig, alm_solve, eval_al, eval_al_grad,
                         hessian_model)
from almprec.auxprecond import build_aux
from almprec.bench import ExperimentConfig, rows_to_csv, \
    run_linsys_experiment, run_spectral_experiment
from almprec.krylov import pcg
from almprec.problems import get_problem, problem_names
from almprec.sparse import SparseSymmetricMatrix
from almprec.structured import ColumnSet, StructuredPrecond, apply_rank1


def _report(number, ok, detail):
    print("criterion %s: %s — %s" % (number, "PASS" if ok else "FAIL",
                                     detail))
    assert ok, detail


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return SparseSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n))


def test_criterion_01_oracle_equivalence():
    """Rank-1 and structured applies match the dense inverse of
    M + V diag(signs) V' to 1e-9 relative, exact auxiliary."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(110):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 9))
        m = _spd(rng, n)
        aux = build_aux(m, "exact")
        r = rng.standard_normal(n)

        # Rank-1 path.
        v = rng.standard_normal(n)
        rho = float(10.0 ** rng.uniform(-2, 4))
        got = apply_rank1(aux, v, rho, r)
        want = np.linalg.solve(m.to_dense() + rho * np.outer(v, v), r)
        worst = max(worst, np.linalg.norm(got - want)
                    / max(np.linalg.norm(want), 1e-300))

        # General path with mixed signs (subtractive columns kept small
        # so the operator stays positive definite).
        mat = rng.standard_normal((n, k))
        signs = np.where(rng.random(k) < 0.8, 1.0, -1.0)
        mat[:, signs < 0] *= 0.1
        cols = ColumnSet(n, mat, signs, list(range(k)))
        got = StructuredPrecond(aux, cols).apply(r)
        dense = m.to_dense()
        for i in range(k):
            dense = dense + signs[i] * np.outer(mat[:, i], mat[:, i])
        want = np.linalg.solve(dense, r)
        worst = max(worst, np.linalg.norm(got - want)
                    / max(np.linalg.norm(want), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, ok, "worst relative error %.3g over 110 instances, "
            "%.2f s" % (worst, elapsed))


def test_criterion_02_spectrum_rank1_form_as_stated():
    """Eigenvalues of P^-1 H vs I + (1-upsilon) Q v v' (Q M - I), Q the
    auxiliary apply.  Expected red: the form omits the identity-times-E
    term that survives for inexact auxiliaries."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    n = 20
    for kind in ("jacobi", "incomplete-cholesky"):
        for _ in range(10):
            m = _spd(rng, n)
            aux = build_aux(m, kind,
                            0.2 if kind == "incomplete-cholesky" else None)
            v = rng.standard_normal(n)
            rho = float(10.0 ** rng.uniform(-1, 3))
            q = np.column_stack([aux.apply(col) for col in np.eye(n)])
            dense_m = m.to_dense()
            e = q @ dense_m - np.eye(n)
            ups = rho / (1.0 + rho * float(v @ (q @ v)))
            rhs = np.eye(n) + (1.0 - ups) * np.outer(q @ v, v) @ e

            cols = ColumnSet(n, (np.sqrt(rho) * v).reshape(n, 1),
                             [1.0], [0])
            sp = StructuredPrecond(aux, cols)
            h = dense_m + rho * np.outer(v, v)
            lhs = np.column_stack([sp.apply(h[:, j]) for j in range(n)])
            lam_lhs = np.sort(np.linalg.eigvals(lhs).real)
            lam_rhs = np.sort(np.linalg.eigvals(rhs).real)
            worst = max(worst, float(np.max(np.abs(lam_lhs - lam_rhs))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(2, ok, "worst per-eigenvalue gap %.3g over 20 instances, "
            "%.2f s" % (worst, elapsed))


def test_criterion_02b_spectrum_enclosure_uniform_in_rho():
    """With an SPD auxiliary Q and positive signs, P = Q^-1 + V V' and
    H = M + V V' (V scaled by sqrt(rho)), so the Rayleigh quotient of
    (H, P) is a mediant of x'Mx / x'Q^-1x and 1: every eigenvalue of
    P^-1 H lies in [min(1, lam_min(QM)), max(1, lam_max(QM))] whatever
    rho, to 1e-6, and at rho >= 1e6 at least m of them lie within 1e-4
    of 1.  Jacobi, IC(0.2) and IC(1e-2) auxiliaries, n = 40, m = 3,
    rho from 1e-2 to 1e8."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    n, m = 40, 3
    excursion, cluster_gap = 0.0, 0.0
    for kind, drop_tol in (("jacobi", None), ("incomplete-cholesky", 0.2),
                           ("incomplete-cholesky", 1e-2)):
        for _ in range(10):
            mat = _spd(rng, n)
            dense_m = mat.to_dense()
            aux = build_aux(mat, kind, drop_tol)
            lam_qm = np.linalg.eigvals(aux.apply(np.eye(n)) @ dense_m).real
            lower, upper = min(1.0, lam_qm.min()), max(1.0, lam_qm.max())
            v = rng.standard_normal((n, m))
            for rho in np.logspace(-2, 8, 11):
                cols = ColumnSet(n, np.sqrt(rho) * v, np.ones(m),
                                 list(range(m)))
                h = dense_m + rho * (v @ v.T)
                lam = np.linalg.eigvals(
                    StructuredPrecond(aux, cols).apply(h)).real
                excursion = max(excursion, lower - lam.min(),
                                lam.max() - upper)
                if rho >= 1e6:
                    cluster_gap = max(cluster_gap,
                                      np.sort(np.abs(lam - 1.0))[m - 1])
    elapsed = time.perf_counter() - start
    ok = excursion <= 1e-6 and cluster_gap <= 1e-4 and elapsed < 5.0
    _report("2b", ok, "largest excursion %.3g, m-th eigenvalue within "
            "%.3g of 1 at rho >= 1e6, over 30 instances and 11 rho, "
            "%.2f s" % (excursion, cluster_gap, elapsed))


def test_criterion_03_exact_diagonal_case_pcg_one_iteration():
    """Diagonal M with exact diagonal auxiliary: preconditioned CG solves
    H x = y in exactly one iteration for rho in {1, 1e6, 1e7}."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    n, k = 50, 3
    m = SparseSymmetricMatrix.from_dense(
        np.diag(rng.uniform(0.5, 50.0, n)))
    aux = build_aux(m, "jacobi")
    v_cols = rng.standard_normal((n, k))
    iterations = {}
    for rho in (1.0, 1e6, 1e7):
        cols = ColumnSet(n, np.sqrt(rho) * v_cols, np.ones(k),
                         list(range(k)))
        sp = StructuredPrecond(aux, cols)

        def h_apply(x, _rho=rho):
            return m.matvec(x) + _rho * v_cols @ (v_cols.T @ x)

        y = h_apply(np.ones(n))
        rep = pcg(h_apply, sp.apply, y, tol=1e-8)
        iterations[rho] = (rep.iterations, rep.converged)
    elapsed = time.perf_counter() - start
    ok = all(it == 1 and conv for it, conv in iterations.values()) \
        and elapsed < 1.0
    _report(3, ok, "PCG iterations per rho %s, %.2f s"
            % ({r: it for r, (it, _) in iterations.items()}, elapsed))


def test_criterion_04_rho_stability_trend():
    """Fixed auxiliary, rho sweep over four decades: kappa(P^-1 H) stays
    within a factor 2 of its median while kappa(H) grows >= 100x."""
    start = time.perf_counter()
    cfg = ExperimentConfig(kind="spectral", n=100, m=10, seed=0,
                           rho_list=(1.5, 15.5, 154.8, 1548.3, 15483.0),
                           drop_tol_list=(0.1,))
    rows = run_spectral_experiment(cfg)
    kappa_h = [row["kappa_H"] for row in rows]
    kappa_ph = [row["kappa_PH"] for row in rows]
    med = float(np.median(kappa_ph))
    stable = all(med / 2.0 <= k <= med * 2.0 for k in kappa_ph)
    growth = kappa_h[-1] / kappa_h[0]
    elapsed = time.perf_counter() - start
    ok = stable and growth >= 100.0 and elapsed < 30.0
    _report(4, ok, "kappa(P^-1 H) in [%.3g, %.3g] (median %.3g), "
            "kappa(H) growth x%.3g, %.2f s"
            % (min(kappa_ph), max(kappa_ph), med, growth, elapsed))


def test_criterion_05_alm_correctness_all_solver_mode_combinations():
    """Both analytic QPs reach their KKT points under every inner solver
    and Hessian mode within 50 outer iterations."""
    start = time.perf_counter()
    failures = []
    for solver in ("truncated-newton", "spg", "pspg"):
        for mode in ("NW", "QN"):
            cfg = AlmConfig(inner_solver=solver, hessian_mode=mode,
                            eps_opt=1e-6, eps_feas=1e-6, max_outer=50)
            rep = alm_solve(get_problem("EQ-QP"), cfg)
            if not (rep.converged
                    and np.allclose(rep.x, [0.0, 1.0], atol=1e-5)
                    and abs(rep.multipliers[0] - 2.0) < 1e-4
                    and abs(rep.f_value - 2.0) < 1e-5):
                failures.append(("EQ-QP", solver, mode, rep.status))
            rep = alm_solve(get_problem("INEQ-QP"), cfg)
            if not (rep.converged
                    and np.allclose(rep.x, [1.0, 0.0], atol=1e-5)
                    and abs(rep.multipliers[0] - 2.0) < 1e-4):
                failures.append(("INEQ-QP", solver, mode, rep.status))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(5, ok, "failures: %s, %.2f s" % (failures or "none", elapsed))


def test_criterion_06_gradient_and_hessian_consistency():
    """Merit gradient vs central differences of the merit, and the
    Newton-model matvec vs central differences of the gradient, relative
    error <= 1e-5 on 20 random points per problem."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    h = 1e-6
    for name in problem_names():
        p = get_problem(name)
        for _ in range(20):
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m)
            rho = float(10.0 ** rng.uniform(-1, 2))
            g = eval_al_grad(p, x, lam, rho)
            fd = np.empty(p.n)
            for i in range(p.n):
                e = np.zeros(p.n)
                e[i] = h
                fd[i] = (eval_al(p, x + e, lam, rho)
                         - eval_al(p, x - e, lam, rho)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1.0)
            worst = max(worst, np.linalg.norm(g - fd) / scale)

            model = hessian_model(p, x, lam, rho, "NW")
            vec = rng.standard_normal(p.n)
            hv = model.apply(vec)
            fd_hv = (eval_al_grad(p, x + h * vec, lam, rho)
                     - eval_al_grad(p, x - h * vec, lam, rho)) / (2 * h)
            scale = max(np.linalg.norm(fd_hv), 1.0)
            worst = max(worst, np.linalg.norm(hv - fd_hv) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(6, ok, "worst relative error %.3g, %.2f s" % (worst, elapsed))


def test_criterion_07_preconditioner_accounting_trend():
    """On the mixed-activity synthetic, assemble-once needs at least as
    many Krylov iterations as the adaptive policy, and the refresh
    counters are reported."""
    start = time.perf_counter()
    reports = {}
    for policy in ("once", "auto"):
        cfg = AlmConfig(inner_solver="truncated-newton",
                        precond_policy=policy)
        reports[policy] = alm_solve(get_problem("C4-SYN"), cfg)
    once, auto = reports["once"], reports["auto"]
    total_once = once.krylov_precond + once.krylov_plain
    total_auto = auto.krylov_precond + auto.krylov_plain
    elapsed = time.perf_counter() - start
    ok = (once.converged and auto.converged
          and total_once >= total_auto
          and once.ac_m == 1 and once.ac_v == 0
          and auto.ac_m >= 1 and elapsed < 30.0)
    _report(7, ok, "Krylov once=%d vs auto=%d; once AcM/AcV=%d/%d, "
            "auto AcM/AcV=%d/%d, %.2f s"
            % (total_once, total_auto, once.ac_m, once.ac_v,
               auto.ac_m, auto.ac_v, elapsed))


def test_criterion_08_pspg_acceleration_trend():
    """PSPG inner iterations <= SPG on each library problem, with at
    least one problem accelerated by 2x or more."""
    start = time.perf_counter()
    names = ("EQ-QP", "INEQ-QP", "BOX-QP", "HS41", "HS48", "HS63")
    pairs = {}
    violations = []
    best = 1.0
    for name in names:
        counts = {}
        for solver in ("spg", "pspg"):
            rep = alm_solve(get_problem(name),
                            AlmConfig(inner_solver=solver))
            if not rep.converged:
                violations.append((name, solver, rep.status))
            counts[solver] = rep.inner_iterations
        pairs[name] = (counts["spg"], counts["pspg"])
        if counts["pspg"] > counts["spg"]:
            violations.append((name, "pspg slower"))
        if counts["pspg"] > 0:
            best = max(best, counts["spg"] / counts["pspg"])
    elapsed = time.perf_counter() - start
    ok = not violations and best >= 2.0 and elapsed < 60.0
    _report(8, ok, "spg/pspg iterations %s, best speedup x%.1f, "
            "violations %s, %.2f s"
            % (pairs, best, violations or "none", elapsed))


def test_criterion_09_determinism_byte_identical_csv():
    """Repeating a seeded harness run reproduces the CSV byte for byte."""
    cfg = ExperimentConfig(kind="linsys", n=40, m=5, seed=12,
                           rho_list=(1.5, 154.8, 15483.0),
                           drop_tol_list=(0.1,))
    first = rows_to_csv(run_linsys_experiment(cfg)).encode()
    second = rows_to_csv(run_linsys_experiment(cfg)).encode()
    spectral = ExperimentConfig(kind="spectral", n=30, m=1, seed=5,
                                rho_list=(1.0, 100.0))
    s1 = rows_to_csv(run_spectral_experiment(spectral)).encode()
    s2 = rows_to_csv(run_spectral_experiment(spectral)).encode()
    ok = first == second and s1 == s2
    _report(9, ok, "linsys %d bytes, spectral %d bytes, both repeated "
            "identically" % (len(first), len(s1)))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
