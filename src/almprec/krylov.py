"""
krylov.py

Preconditioned Conjugate Gradients and preconditioned MINRES over callable
operator contracts.  Both stop on the unpreconditioned relative residual
||r|| / ||b|| <= tol: `pcg` reads ||r|| from its recurrence residual,
which can drift from the true b - Ax in finite precision, and `pminres`
forms the true residual b - Ax on every iteration.

A breakdown raises, never returns: IndefiniteOperatorError when CG
meets p'Ap <= 0, and PreconditionerBreakdownError when a preconditioner
gives r'P^-1 r <= 0, or NaN, for a nonzero r.  MINRES's exact Lanczos
end (a zero residual vector, so beta = 0) is a normal stop.  Either
error carries in `applies` the iterations begun before it, the failing
one included: one operator apply each, as `KrylovReport.iterations`
counts them (MINRES's true-residual products are not counted).  CG's
error also carries a descent `direction`; no solver path calls `pminres`.
"""

from dataclasses import dataclass, field

import numpy as np


class IndefiniteOperatorError(RuntimeError):
    """CG breakdown: the operator is not positive definite.  `direction`
    is the Newton-CG exit at negative curvature (Dembo & Steihaug 1983;
    Nocedal & Wright, Alg. 7.1): the iterate x, or P^-1 b when the first
    iteration fails, both descent directions for 1/2 x'Ax - b'x."""

    def __init__(self, message, applies=0, direction=None):
        super().__init__(message)
        self.applies = applies
        self.direction = direction


class PreconditionerBreakdownError(ValueError):
    """r'P^-1 r is zero, negative or NaN for a nonzero r: the
    preconditioner argument is not positive definite."""

    def __init__(self, message, applies=0):
        super().__init__(message)
        self.applies = applies


@dataclass
class KrylovReport:
    solution: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False


def _arguments(op, precond, b, tol, maxit):
    """(apply_op, apply_prec or None, b as a float array, maxit), checked;
    maxit is 10 n by default, and an operator a callable or its `apply`."""
    b = np.asarray(b, dtype=np.float64)
    # A bool is an int, so would read as 0 or 1.
    if isinstance(tol, bool) or not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive, got %r" % (tol,))
    if maxit is None:
        maxit = 10 * b.size
    if isinstance(maxit, bool) or not isinstance(maxit, (int, np.integer)):
        raise ValueError("maxit must be an integer, got %r" % (maxit,))
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    op, precond = (a if a is None or callable(a) else a.apply
                   for a in (op, precond))
    return op, precond, b, maxit


def _precondition(apply_prec, r, applies):
    """(z, r'z) with z = P^-1 r, or z = r itself without a
    preconditioner.  Raises PreconditionerBreakdownError, carrying the
    solver's `applies` so far, when a preconditioner gives r'z <= 0 or
    NaN for a nonzero r."""
    if apply_prec is None:
        return r, float(r @ r)
    z = apply_prec(r)
    rz = float(r @ z)
    if not rz > 0.0 and r.any():
        raise PreconditionerBreakdownError(
            "preconditioner is not positive definite: r'P^-1 r = %g" % rz,
            applies)
    return z, rz


def pcg(op, precond, b, tol=1e-8, maxit=None):
    """
    Conjugate Gradients on Ax = b with optional SPD preconditioner.

    The iteration count excludes the iteration-0 residual check.  A
    non-positive curvature p'Ap raises IndefiniteOperatorError, and a
    preconditioner breakdown PreconditionerBreakdownError; hitting maxit
    returns converged=False without error.
    """
    apply_op, apply_prec, b, maxit = _arguments(op, precond, b, tol, maxit)
    x = np.zeros(b.size)
    r = b.copy()
    normb = float(np.linalg.norm(b))
    history = [normb]
    if normb == 0.0 or normb <= tol * normb:
        return KrylovReport(x, 0, history, True)

    z, gamma = _precondition(apply_prec, r, 0)
    p = z.copy()
    iterations, converged = 0, False
    for _ in range(maxit):
        ap = apply_op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperatorError(
                "indefinite operator: p'Ap = %g" % pap, iterations + 1,
                x if iterations else z)
        alpha = gamma / pap
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= tol * normb:
            converged = True
            break
        z, gamma_new = _precondition(apply_prec, r, iterations)
        p = z + (gamma_new / gamma) * p
        gamma = gamma_new
    return KrylovReport(x, iterations, history, converged)


def pminres(op, precond, b, tol=1e-8, maxit=None):
    """
    MINRES on symmetric (possibly indefinite) Ax = b, with optional SPD
    preconditioner.  Stops on the true residual ||b - Ax|| / ||b|| <= tol,
    or where the Lanczos process ends exactly (beta = 0).  A
    preconditioner breakdown raises PreconditionerBreakdownError.
    """
    apply_op, apply_prec, b, maxit = _arguments(op, precond, b, tol, maxit)
    n = b.size
    x = np.zeros(n)
    normb = np.linalg.norm(b)
    history = [float(normb)]
    if normb == 0.0:
        return KrylovReport(x, 0, history, True)

    r1 = b.copy()
    y, beta1 = _precondition(apply_prec, r1, 0)
    beta1 = np.sqrt(beta1)

    oldb, beta, phibar = 0.0, beta1, beta1
    dbar = epsln = 0.0
    cs, sn = -1.0, 0.0
    w, w2 = np.zeros(n), np.zeros(n)
    r2 = r1.copy()

    for itn in range(1, maxit + 1):  # maxit >= 1: at least one pass
        v = y / beta
        y = apply_op(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        oldb = beta
        y, beta = _precondition(apply_prec, r2, itn)
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w

        res = float(np.linalg.norm(b - apply_op(x)))
        history.append(res)
        converged = bool(res <= tol * normb)
        if converged or beta == 0.0:  # beta 0: the Lanczos process ended
            break
    return KrylovReport(x, itn, history, converged)
