"""
inner.py

Solvers for box-constrained sub-problems.  `projected_descent` is the
one nonmonotone projected iteration, with the projected line search
`projected_search`; a solver supplies only its search direction.
`spg_solve` supplies the (preconditioned) spectral projected gradient
direction, and the ALM's truncated Newton direction comes from
`truncated_newton_step`, built on CG.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

# pminres is not used here: perfbench's layer tracer wraps the target
# `almprec.inner:pminres` (test_traced_counts_match_untraced).
from .krylov import (IndefiniteOperatorError, KrylovReport,  # noqa: F401
                     PreconditionerBreakdownError, pcg, pminres)


# The inner solvers' parameters.  Each is read when a solver runs, so a
# test can patch it on this module.
MAX_ITERATIONS = 500        # projected_descent's iterations per call
KRYLOV_TOL = 1e-8           # floor of truncated Newton's CG relative residual
# theta: truncated Newton's CG stops at ||r||_2 <= theta * grad_tol, above
# the KRYLOV_TOL floor (see truncated_newton_step).  On alm-eq-tn (seeds
# 1, 2, 3, 7, 11) 0.5 takes 26-28 Krylov iterations per solve, against
# 45-46 at the floor; 0.1 took 30-32, and lost solve_s in 5 of 5 pairs.
KRYLOV_TOL_PER_GRAD_TOL = 0.5
MEMORY = 10                 # merit values the nonmonotone search compares
ALPHA_MIN = 1e-10           # spg_solve's bounds on the spectral step
ALPHA_MAX = 1e10
SUFFICIENT_DECREASE = 1e-4  # projected_search's Armijo constant
BACKTRACK = 0.5             # its step reduction per trial
MAX_BACKTRACKS = 50
ACTIVE_TOL = 1e-10          # distance at which a variable is at its bound


@dataclass
class TnStep:
    direction: np.ndarray
    krylov_precond: int  # raised attempts' iterations included
    krylov_plain: int
    negative_curvature: bool  # CG stopped at p'Hp <= 0
    converged: bool  # CG reached its relative residual eta
    preconditioned: bool
    fallback_gradient: bool = False

    @property
    def krylov_iterations(self):
        return self.krylov_precond + self.krylov_plain


@dataclass
class SpgResult:
    x: np.ndarray
    iterations: int
    status: str  # "converged" | "max-iterations" | "line-search-failure"
    f_value: float = np.nan


def project_box(x, lower, upper):
    """Componentwise Euclidean projection onto [lower, upper]."""
    return np.minimum(np.maximum(x, lower), upper)


def active_bound_mask(x, g, lower, upper):
    """Components pinned at a bound with the gradient pushing outward.
    Scaled directions must not couple these into the free variables."""
    return (((x <= lower + ACTIVE_TOL) & (g > 0.0))
            | ((x >= upper - ACTIVE_TOL) & (g < 0.0)))


def truncated_newton_step(model, grad, precond, grad_tol=0.0):
    """
    Solve the quadratic model H d = -grad inexactly by PCG to the
    relative residual eta = max(KRYLOV_TOL, theta * min(1, grad_tol /
    ||grad||_2)), theta = KRYLOV_TOL_PER_GRAD_TOL, with the Krylov
    default of at most 10 n iterations.  `grad_tol` is the stop
    tolerance of the subproblem the step serves: CG stops once
    ||r||_2 <= theta * grad_tol, unless the KRYLOV_TOL floor is tighter.
    On a quadratic the unit step leaves the gradient r, so a step that
    ends the subproblem at the tighter residual still ends it; elsewhere
    eta <= theta < 1 is an inexact-Newton forcing term (Dembo, Eisenstat
    & Steihaug 1982).  The default 0, like a zero gradient, keeps
    eta = KRYLOV_TOL.  At p'Hp <= 0 the step is the Newton-CG exit,
    IndefiniteOperatorError's `direction`, and `negative_curvature` is
    set; when the preconditioner breaks down
    (PreconditionerBreakdownError) CG runs again without it.  Any other
    error propagates.  A non-descent or NaN result is replaced by the
    steepest-descent direction.  The iterations an attempt made before
    it raised count with the preconditioned or the plain ones, as that
    attempt ran.
    """
    rhs = -np.asarray(grad, dtype=np.float64)
    norm = float(np.linalg.norm(rhs))
    tol = KRYLOV_TOL
    if norm > 0.0:
        tol = max(KRYLOV_TOL,
                  KRYLOV_TOL_PER_GRAD_TOL * min(1.0, grad_tol / norm))
    used_precond, negative = precond is not None, False
    done = {True: 0, False: 0}  # iterations by whether preconditioned
    while True:
        try:
            report = pcg(model, precond if used_precond else None, rhs,
                         tol=tol)
            break
        except IndefiniteOperatorError as exc:
            report, negative = KrylovReport(exc.direction, exc.applies), True
            break
        except PreconditionerBreakdownError as exc:
            if not used_precond:
                raise
            done[True] += exc.applies
            used_precond = False
    done[used_precond] += report.iterations

    d = report.solution
    fallback = not float(d @ grad) < 0.0  # also a NaN direction
    if fallback:
        d = rhs.copy()
    return TnStep(d, done[True], done[False], negative, report.converged,
                  used_precond, fallback)


def projected_search(f_eval, x, d, g, f_ref, lower, upper):
    """
    Nonmonotone projected backtracking along d: trial points
    P_box(x + t d), t = 1, BACKTRACK, ..., BACKTRACK^MAX_BACKTRACKS,
    accepted when f(trial) <= f_ref + SUFFICIENT_DECREASE * g'(trial - x).
    Stops without a point when that slope is not negative.  Returns
    (trial, f(trial)), or None when no trial point is accepted.
    """
    t = 1.0
    for _bt in range(MAX_BACKTRACKS + 1):
        trial = project_box(x + t * d, lower, upper)
        slope = float(g @ (trial - x))
        if slope >= 0.0:
            return None
        f_trial = f_eval(trial)
        if f_trial <= f_ref + SUFFICIENT_DECREASE * slope:
            return trial, f_trial
        t *= BACKTRACK
    return None


def projected_descent(f_eval, grad_eval, lower, upper, x0, grad_tol,
                      direction):
    """
    The nonmonotone projected descent loop both inner solvers share.
    Each iteration asks `direction(x, g, pg, s, y)` for a step d, with g
    the gradient at x, pg = P_box(x - g) - x and (s, y) the previous
    step and gradient change (None on the first call), then runs
    `projected_search` along d against the largest of the last MEMORY
    merit values, retried along pg.  Terminates when
    ||pg||_inf <= grad_tol, which must be positive, or after
    MAX_ITERATIONS iterations.
    """
    if not grad_tol > 0.0:  # NaN fails too
        raise ValueError("grad_tol must be positive, got %r" % (grad_tol,))
    x = project_box(np.asarray(x0, dtype=np.float64), lower, upper)
    fx = f_eval(x)
    g = grad_eval(x)
    f_memory = deque([fx], maxlen=MEMORY)
    s = y = None
    status = "max-iterations"
    iterations = 0

    for _ in range(MAX_ITERATIONS):
        pg = project_box(x - g, lower, upper) - x
        if np.max(np.abs(pg), initial=0.0) <= grad_tol:
            status = "converged"
            break
        iterations += 1
        d = direction(x, g, pg, s, y)
        f_ref = max(f_memory)
        found = projected_search(f_eval, x, d, g, f_ref, lower, upper)
        if found is None:
            # Retry along the projected gradient with a fresh line search.
            found = projected_search(f_eval, x, pg, g, f_ref, lower, upper)
        if found is None:
            status = "line-search-failure"
            break
        trial, fx = found
        g_trial = grad_eval(trial)
        s = trial - x
        y = g_trial - g
        x, g = trial, g_trial
        f_memory.append(fx)

    return SpgResult(x, iterations, status, fx)


def spg_solve(f_eval, grad_eval, lower, upper, x0, grad_tol,
              precond=None):
    """
    Spectral projected gradient: `projected_descent` along
    d = P_box(x - alpha D grad) - x, D = identity or the preconditioner.
    `precond` is None or a callable precond(x, g, s, y), with g the
    gradient at x, that returns (apply, free): `free` indexes the
    variables left free (an index array, or slice(None) when nothing is
    pinned) and `apply` acts on the gradient restricted to them.  It
    returns None when no variable is free; then the step is the plain
    spectral one.  The preconditioned step takes pgrad = g with
    pgrad[free] = apply(g[free]), the two-metric safeguard: bound-pinned
    components keep their raw gradient, clipped by the projection.  Each
    direction first updates the spectral coefficients from the previous
    step (s, y): alpha_bb = s's / s'y, and alpha_p = s'y / y'Dy with the
    previous step's D, zero on the components it left pinned.
    """
    alpha_bb = None      # plain spectral coefficient
    alpha_p = 1.0        # coefficient in the preconditioned metric
    prev = None          # the previous step's (apply, free)

    def direction(x, g, pg, s, y):
        nonlocal alpha_bb, alpha_p, prev
        if s is None:
            alpha_bb = min(ALPHA_MAX,
                           max(ALPHA_MIN, 1.0 / np.max(np.abs(pg))))
        else:
            sy = float(s @ y)
            ss = float(s @ s)
            if sy > 1e-14 * max(ss, 1e-300):
                alpha_bb = float(np.clip(ss / sy, ALPHA_MIN, ALPHA_MAX))
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
                alpha_bb = ALPHA_MAX
            # On degenerate (near-zero) steps both coefficients are kept.

        d = None
        prev = precond(x, g, s, y) if precond is not None else None
        if prev is not None:
            apply, free = prev
            pgrad = g.copy()
            pgrad[free] = apply(g[free])
            d = project_box(x - alpha_p * pgrad, lower, upper) - x
            if float(d @ g) >= 0.0:
                d = None
        if d is None:
            d = project_box(x - alpha_bb * g, lower, upper) - x
        return d

    return projected_descent(f_eval, grad_eval, lower, upper, x0, grad_tol,
                             direction)
