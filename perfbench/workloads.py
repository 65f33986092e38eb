"""
The benchmark workloads.  Each one generates its inputs and reference
from a seed (`setup`), runs one timed solve through almprec's public
functions (`solve`), and checks the solve against the benchmark's own
reference (`check`).  Public names are looked up on their modules at call
time, so the traced run sees the calls it wraps.
"""

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from almprec import alm, auxprecond, krylov, structured

from . import generators as gen

LINSYS_DROP_TOL = 1e-2
LINSYS_TOL = 1e-8
# Checks against the benchmark's own references.  The solver stops at
# 1e-8 relative residual (linsys) or 1e-6 KKT residuals (ALM); the checks
# leave one to two decades of room for rounding and for the gap between
# the solver's and the benchmark's measure.
LINSYS_RESIDUAL_MAX = 1e-7
EQ_QP_ERROR_MAX = 1e-5
OBSTACLE_KKT_MAX = 1e-5


@dataclass
class Outcome:
    """What one solve reports: its iteration and refresh counts, and
    whatever `check` needs."""
    counts: dict
    status: str
    payload: Any


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    solve: Callable[[Any], Outcome]
    check: Callable[[Any, Outcome], float]
    check_max: float


# ---------------------------------------------------------------------------
# linsys-rho-sweep
# ---------------------------------------------------------------------------

LINSYS_GRID = 24


def _h_operator(m_sym, v, rho):
    def apply_h(x):
        return m_sym.matvec(x) + rho * (v @ (v.T @ x))
    return apply_h


def solve_linsys(inp, cg_plain=False):
    """One auxiliary build, then per rho a B assembly and a PCG solve.
    With `cg_plain`, the same systems are solved by unpreconditioned CG
    instead (used only for the traced run's comparison)."""
    n, m = inp.v.shape
    aux = None if cg_plain else auxprecond.build_aux(
        inp.m_sym, "incomplete-cholesky", LINSYS_DROP_TOL)
    solutions, iterations, converged = [], 0, True
    for rho in inp.rhos:
        precond = None
        if not cg_plain:
            cols = structured.ColumnSet(n, np.sqrt(rho) * inp.v, np.ones(m),
                                        list(range(m)))
            precond = structured.StructuredPrecond(aux, cols)
        report = krylov.pcg(_h_operator(inp.m_sym, inp.v, rho), precond,
                            inp.b, tol=LINSYS_TOL)
        solutions.append(report.solution)
        iterations += report.iterations
        converged = converged and report.converged
    steps = len(inp.rhos)
    # The sweep has no ALM loop: each rho is one outer step with one
    # linear solve as its inner iteration.
    counts = {"krylov_iters": iterations, "inner_iters": steps,
              "outer_iters": steps, "ac_m": 0, "ac_v": 0}
    return Outcome(counts, "converged" if converged else "unconverged",
                   solutions)


def check_linsys(inp, outcome):
    return max(gen.linsys_residual(inp, rho, x)
               for rho, x in zip(inp.rhos, outcome.payload))


# ---------------------------------------------------------------------------
# ALM workloads
# ---------------------------------------------------------------------------

EQ_GRID = 24
OBSTACLE_GRID = 14

EQ_CONFIG = dict(inner_solver="truncated-newton", hessian_mode="NW",
                 precond_policy="auto", aux_kind="incomplete-cholesky",
                 drop_tol=1e-2)
OBSTACLE_CONFIG = dict(inner_solver="pspg", hessian_mode="QN",
                       precond_policy="auto")


@dataclass
class AlmInputs:
    problem: Any
    x_ref: Any = None


def _alm_solver(config):
    def solve(inputs):
        report = alm.alm_solve(inputs.problem, alm.AlmConfig(**config))
        counts = {"krylov_iters": report.krylov_precond + report.krylov_plain,
                  "inner_iters": report.inner_iterations,
                  "outer_iters": report.outer_iterations,
                  "ac_m": report.ac_m, "ac_v": report.ac_v}
        return Outcome(counts, report.status, report)
    return solve


def _setup_eq(seed):
    return AlmInputs(*gen.poisson_eq_qp(seed, EQ_GRID))


def _check_eq(inputs, outcome):
    return gen.eq_qp_error(inputs.x_ref, outcome.payload.x)


def _setup_obstacle(seed):
    return AlmInputs(gen.obstacle_problem(seed, OBSTACLE_GRID))


def _check_obstacle(inputs, outcome):
    report = outcome.payload
    return gen.kkt_error(inputs.problem, report.x, report.multipliers)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "linsys-rho-sweep",
            lambda seed: gen.linsys_inputs(seed, LINSYS_GRID),
            solve_linsys, check_linsys, LINSYS_RESIDUAL_MAX),
        Workload(
            "alm-eq-tn",
            _setup_eq, _alm_solver(EQ_CONFIG), _check_eq, EQ_QP_ERROR_MAX),
        Workload(
            "alm-obstacle-pspg",
            _setup_obstacle, _alm_solver(OBSTACLE_CONFIG), _check_obstacle,
            OBSTACLE_KKT_MAX),
    )
}
