"""
krylov.py

Preconditioned Conjugate Gradients and preconditioned MINRES over callable
operator contracts.  Both stop on the unpreconditioned relative residual
||r|| / ||b|| <= tol: `pcg` reads ||r|| from its recurrence residual,
which can drift from the true b - Ax in finite precision, and `pminres`
forms the true residual b - Ax on every iteration.
"""

from dataclasses import dataclass, field

import numpy as np


class IndefiniteOperatorError(RuntimeError):
    """CG breakdown: the operator is not positive definite."""


@dataclass
class KrylovReport:
    solution: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False


def _as_apply(op):
    if op is None:
        return None
    if callable(op):
        return op
    return op.apply


def pcg(op, precond, b, tol=1e-8, maxit=None):
    """
    Conjugate Gradients on Ax = b with optional SPD preconditioner.

    The iteration count excludes the iteration-0 residual check.  A
    non-positive curvature p'Ap raises IndefiniteOperatorError; hitting
    maxit returns converged=False without error.
    """
    apply_op = _as_apply(op)
    apply_prec = _as_apply(precond)
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if tol <= 0:
        raise ValueError("tol must be positive")
    if maxit is None:
        maxit = 10 * n
    if maxit < 1:
        raise ValueError("maxit must be >= 1")

    x = np.zeros(n)
    r = b.copy()
    normb = np.linalg.norm(b)
    history = [float(np.linalg.norm(r))]
    if normb == 0.0 or history[0] <= tol * normb:
        return KrylovReport(x, 0, history, True)

    z = apply_prec(r) if apply_prec is not None else r
    p = z.copy()
    gamma = float(r @ z)
    iterations = 0
    converged = False
    for _ in range(maxit):
        ap = apply_op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperatorError(
                "indefinite operator: p'Ap = %g" % pap)
        alpha = gamma / pap
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= tol * normb:
            converged = True
            break
        z = apply_prec(r) if apply_prec is not None else r
        gamma_new = float(r @ z)
        p = z + (gamma_new / gamma) * p
        gamma = gamma_new
    return KrylovReport(x, iterations, history, converged)


def pminres(op, precond, b, tol=1e-8, maxit=None):
    """
    MINRES on symmetric (possibly indefinite) Ax = b, with optional SPD
    preconditioner.  Stops on the true residual ||b - Ax|| / ||b|| <= tol.
    """
    apply_op = _as_apply(op)
    apply_prec = _as_apply(precond)
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if tol <= 0:
        raise ValueError("tol must be positive")
    if maxit is None:
        maxit = 10 * n
    if maxit < 1:
        raise ValueError("maxit must be >= 1")

    x = np.zeros(n)
    normb = np.linalg.norm(b)
    history = [float(normb)]
    if normb == 0.0:
        return KrylovReport(x, 0, history, True)

    r1 = b.copy()
    y = apply_prec(r1) if apply_prec is not None else r1.copy()
    beta1 = float(r1 @ y)
    if beta1 < 0.0:
        raise ValueError("preconditioner is not positive definite")
    if beta1 == 0.0:
        return KrylovReport(x, 0, history, True)
    beta1 = np.sqrt(beta1)

    oldb = 0.0
    beta = beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1.copy()

    iterations = 0
    converged = False
    for itn in range(1, maxit + 1):
        v = y / beta
        y = apply_op(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = apply_prec(r2) if apply_prec is not None else r2.copy()
        oldb = beta
        beta = float(r2 @ y)
        if beta < 0.0:
            raise ValueError("preconditioner is not positive definite")
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

        iterations = itn
        res = float(np.linalg.norm(b - apply_op(x)))
        history.append(res)
        if res <= tol * normb:
            converged = True
            break
    return KrylovReport(x, iterations, history, converged)
