"""
inner.py

Solvers for box-constrained sub-problems.  `projected_descent` is the
one nonmonotone projected iteration, with the projected line search
`projected_search`; a solver supplies only its search direction.
`spg_solve` supplies the (preconditioned) spectral projected gradient
direction, and the ALM's truncated Newton direction comes from
`truncated_newton_step`, built on the Krylov solvers.
"""

from dataclasses import dataclass

import numpy as np

from .krylov import (IndefiniteOperatorError, PreconditionerBreakdownError,
                     pcg, pminres)


@dataclass
class InnerConfig:
    grad_tol: float = 1e-7
    max_iterations: int = 500
    krylov_tol: float = 1e-8
    memory: int = 10
    alpha_min: float = 1e-10
    alpha_max: float = 1e10
    sufficient_decrease: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 50

    def __post_init__(self):
        if not 0 < self.alpha_min < self.alpha_max:
            raise ValueError("require 0 < alpha_min < alpha_max")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")


@dataclass
class TnStep:
    direction: np.ndarray
    krylov_iterations: int
    solver: str  # "pcg" | "pminres"
    converged: bool
    preconditioned: bool
    fallback_gradient: bool = False


@dataclass
class SpgResult:
    x: np.ndarray
    iterations: int
    status: str  # "converged" | "max-iterations" | "line-search-failure"
    f_value: float = np.nan


def project_box(x, lower, upper):
    """Componentwise Euclidean projection onto [lower, upper]."""
    return np.minimum(np.maximum(x, lower), upper)


def active_bound_mask(x, g, lower, upper, tol=1e-10):
    """Components pinned at a bound with the gradient pushing outward.
    Scaled directions must not couple these into the free variables."""
    return (((x <= lower + tol) & (g > 0.0))
            | ((x >= upper - tol) & (g < 0.0)))


def truncated_newton_step(model, grad, precond, cfg):
    """
    Solve the quadratic model H d = -grad inexactly: PCG first, MINRES
    when CG detects an indefinite operator (IndefiniteOperatorError),
    and the same solver again without the preconditioner when it breaks
    down (PreconditionerBreakdownError), each with the Krylov default of
    at most 10 n iterations.  Any other error propagates.  A non-descent
    or NaN result is replaced by the steepest-descent direction.
    """
    rhs = -np.asarray(grad, dtype=np.float64)
    used_precond, solver = precond is not None, "pcg"
    while True:
        try:
            report = (pcg if solver == "pcg" else pminres)(
                model, precond if used_precond else None, rhs,
                tol=cfg.krylov_tol)
            break
        except IndefiniteOperatorError:
            if solver != "pcg":
                raise
            solver = "pminres"
        except PreconditionerBreakdownError:
            if not used_precond:
                raise
            used_precond = False

    d = report.solution
    fallback = not float(d @ grad) < 0.0  # also a NaN direction
    if fallback:
        d = rhs.copy()
    return TnStep(d, report.iterations, solver, report.converged,
                  used_precond, fallback)


def projected_search(f_eval, x, d, g, f_ref, lower, upper, cfg):
    """
    Nonmonotone projected backtracking along d: trial points
    P_box(x + t d), t = 1, cfg.backtrack, ..., accepted when
    f(trial) <= f_ref + cfg.sufficient_decrease * g'(trial - x).  Stops
    without a point when that slope is not negative.  Returns
    (trial, f(trial)), or None when no trial point is accepted.
    """
    t = 1.0
    for _bt in range(cfg.max_backtracks + 1):
        trial = project_box(x + t * d, lower, upper)
        slope = float(g @ (trial - x))
        if slope >= 0.0:
            return None
        f_trial = f_eval(trial)
        if f_trial <= f_ref + cfg.sufficient_decrease * slope:
            return trial, f_trial
        t *= cfg.backtrack
    return None


def projected_descent(f_eval, grad_eval, lower, upper, x0, cfg, direction):
    """
    The nonmonotone projected descent loop both inner solvers share.
    Each iteration asks `direction(x, g, pg, s, y)` for a step d, with g
    the gradient at x, pg = P_box(x - g) - x and (s, y) the previous
    step and gradient change (None on the first call), then runs
    `projected_search` along d against the largest of the last
    cfg.memory merit values, retried along pg.  Terminates when
    ||pg||_inf <= cfg.grad_tol.
    """
    x = project_box(np.asarray(x0, dtype=np.float64), lower, upper)
    fx = f_eval(x)
    g = grad_eval(x)
    f_memory = [fx]
    s = y = None
    status = "max-iterations"
    iterations = 0

    for _ in range(cfg.max_iterations):
        pg = project_box(x - g, lower, upper) - x
        if np.max(np.abs(pg), initial=0.0) <= cfg.grad_tol:
            status = "converged"
            break
        iterations += 1
        d = direction(x, g, pg, s, y)
        f_ref = max(f_memory)
        found = projected_search(f_eval, x, d, g, f_ref, lower, upper, cfg)
        if found is None:
            # Retry along the projected gradient with a fresh line search.
            found = projected_search(f_eval, x, pg, g, f_ref, lower, upper,
                                     cfg)
        if found is None:
            status = "line-search-failure"
            break
        trial, fx = found
        g_trial = grad_eval(trial)
        s = trial - x
        y = g_trial - g
        x, g = trial, g_trial
        f_memory.append(fx)
        if len(f_memory) > cfg.memory:
            f_memory.pop(0)

    return SpgResult(x, iterations, status, fx)


def spg_solve(f_eval, grad_eval, lower, upper, x0, cfg, precond=None):
    """
    Spectral projected gradient: `projected_descent` along
    d = P_box(x - alpha D grad) - x, D = identity or the preconditioner.
    `precond` is None or a provider whose .get(x, g, s, y), with g the
    gradient at x, returns (apply, free): `free` indexes the variables
    left free (an index array, or slice(None) when nothing is pinned)
    and `apply` acts on the gradient restricted to them.  The step takes
    pgrad = g with pgrad[free] = apply(g[free]), the two-metric
    safeguard: bound-pinned components keep their raw gradient, clipped
    by the projection.  Each direction first updates the spectral
    coefficients from the previous step (s, y): alpha_bb = s's / s'y,
    and alpha_p = s'y / y'Dy with the previous step's D, zero on the
    components it left pinned.
    """
    alpha_bb = None      # plain spectral coefficient
    alpha_p = 1.0        # coefficient in the preconditioned metric
    prev = None          # the previous step's (apply, free)

    def direction(x, g, pg, s, y):
        nonlocal alpha_bb, alpha_p, prev
        if s is None:
            alpha_bb = min(cfg.alpha_max,
                           max(cfg.alpha_min, 1.0 / np.max(np.abs(pg))))
        else:
            sy = float(s @ y)
            ss = float(s @ s)
            if sy > 1e-14 * max(ss, 1e-300):
                alpha_bb = float(np.clip(ss / sy, cfg.alpha_min,
                                         cfg.alpha_max))
                if prev is not None:
                    # alpha_p is 1 when D inverts the local Hessian
                    # exactly, so it is trusted only within a moderate
                    # band around 1.
                    # y'Dy is an n-length product, zero on the pinned
                    # components; y[free] @ apply(y[free]) rounds apart.
                    apply, free = prev
                    dy = np.zeros_like(y)
                    dy[free] = apply(y[free])
                    ypy = float(y @ dy)
                    if ypy > 0.0:
                        alpha_p = float(np.clip(sy / ypy, 1e-2, 1e2))
            elif sy <= 0.0 and ss > 0.0:
                alpha_bb = cfg.alpha_max
            # On degenerate (near-zero) steps both coefficients are kept.

        d = None
        if precond is not None:
            prev = apply, free = precond.get(x, g, s, y)
            pgrad = g.copy()
            pgrad[free] = apply(g[free])
            d = project_box(x - alpha_p * pgrad, lower, upper) - x
            if float(d @ g) >= 0.0:
                d = None
        if d is None:
            d = project_box(x - alpha_bb * g, lower, upper) - x
        return d

    return projected_descent(f_eval, grad_eval, lower, upper, x0, cfg,
                             direction)
