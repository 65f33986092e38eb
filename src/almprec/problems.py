"""
problems.py

Built-in nonlinear programming test problems: three analytic quadratic
programs, three Hock-Schittkowski formulations (HS41, HS48, HS63) and a
ten-variable synthetic with nine inequalities and one equality.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class NlpProblem:
    """
    Evaluation contract for minimize f(x) s.t. c_i(x) (= 0 | <= 0),
    l <= x <= u.  All callables are pure.  The kinds are checked once, at
    construction, into the boolean mask `equality`; the solver reads only
    the mask.  `x0`, `lower` and `upper` must be of shape (n,) and hold
    no NaN; a bound may be infinite.

    A solve decides once, at its first Hessian model, which arrays are
    constant: it calls `hess` and `jac_cols` twice at that point, and a
    callable that returns the same read-only array that owns its data
    both times (`is_constant`) is not called again in that solve.  With
    such a Jacobian, a Newton (NW) solve also calls each `cons_hess(i,
    x)` twice there; when all are such arrays and zero, the constraints
    are linear and no later model calls `cons_hess`.  A quadratic
    program with linear constraints can so be read once per solve.  An
    array must not be changed while a solve can still see it.  Anything
    else is read afresh by every model.
    """
    name: str
    n: int
    x0: np.ndarray
    kinds: tuple  # per-constraint: "equality" | "inequality"
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    cons: Callable[[np.ndarray], np.ndarray]
    jac_cols: Callable[[np.ndarray], np.ndarray]  # n x m, column i = grad c_i
    cons_hess: Callable[[int, np.ndarray], np.ndarray]
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    solution: Optional[np.ndarray] = None
    f_star: Optional[float] = None
    equality: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.equality = equality_mask(self.kinds)
        if self.lower is None:
            self.lower = np.full(self.n, -np.inf)
        if self.upper is None:
            self.upper = np.full(self.n, np.inf)
        for name in ("x0", "lower", "upper"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != (self.n,):
                raise ValueError("%s must have shape (%d,), got %s"
                                 % (name, self.n, value.shape))
            if np.isnan(value).any():
                raise ValueError("%s must not hold NaN" % name)
            setattr(self, name, value)
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def m(self):
        return len(self.kinds)


def is_constant(a):
    """True when `a` is an array that NlpProblem's contract declares
    constant: a read-only ndarray that owns its data."""
    return (isinstance(a, np.ndarray) and not a.flags.writeable
            and a.base is None)


def equality_mask(kinds):
    """Read-only boolean mask, True where kinds[i] is "equality".  Any kind
    other than "equality" or "inequality" raises ValueError naming it."""
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in ("equality", "inequality"):
            raise ValueError("unknown constraint kind %r; expected "
                             "'equality' or 'inequality'" % (kind,))
    mask = np.array([kind == "equality" for kind in kinds], dtype=bool)
    mask.flags.writeable = False
    return mask


def _no_cons(_x):
    return np.zeros(0)


def _no_jac(x):
    return np.zeros((x.size, 0))


def _no_cons_hess(_i, x):
    return np.zeros((x.size, x.size))


def eq_qp():
    """min (x1-1)^2 + (x2-2)^2  s.t.  x1 + x2 - 1 = 0; x* = (0, 1)."""
    target = np.array([1.0, 2.0])
    return NlpProblem(
        name="EQ-QP", n=2, x0=np.zeros(2), kinds=("equality",),
        f=lambda x: float(np.sum((x - target) ** 2)),
        grad=lambda x: 2.0 * (x - target),
        hess=lambda x: 2.0 * np.eye(2),
        cons=lambda x: np.array([x[0] + x[1] - 1.0]),
        jac_cols=lambda x: np.array([[1.0], [1.0]]),
        cons_hess=_no_cons_hess,
        solution=np.array([0.0, 1.0]), f_star=2.0)


def ineq_qp():
    """min x1^2 + x2^2  s.t.  1 - x1 <= 0; x* = (1, 0), mu* = 2."""
    return NlpProblem(
        name="INEQ-QP", n=2, x0=np.zeros(2), kinds=("inequality",),
        f=lambda x: float(x @ x),
        grad=lambda x: 2.0 * x,
        hess=lambda x: 2.0 * np.eye(2),
        cons=lambda x: np.array([1.0 - x[0]]),
        jac_cols=lambda x: np.array([[-1.0], [0.0]]),
        cons_hess=_no_cons_hess,
        solution=np.array([1.0, 0.0]), f_star=1.0)


def box_qp():
    """min ||x - (2,2)||^2 over the box [0,1]^2; x* = (1, 1)."""
    target = np.array([2.0, 2.0])
    return NlpProblem(
        name="BOX-QP", n=2, x0=np.array([0.2, 0.8]), kinds=(),
        f=lambda x: float(np.sum((x - target) ** 2)),
        grad=lambda x: 2.0 * (x - target),
        hess=lambda x: 2.0 * np.eye(2),
        cons=_no_cons, jac_cols=_no_jac, cons_hess=_no_cons_hess,
        lower=np.zeros(2), upper=np.ones(2),
        solution=np.array([1.0, 1.0]), f_star=2.0)


def hs41():
    """min 2 - x1 x2 x3  s.t.  x1 + 2 x2 + 2 x3 - x4 = 0, box bounds."""
    def hess(x):
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = -x[2]
        h[0, 2] = h[2, 0] = -x[1]
        h[1, 2] = h[2, 1] = -x[0]
        return h

    return NlpProblem(
        name="HS41", n=4, x0=np.full(4, 2.0), kinds=("equality",),
        f=lambda x: 2.0 - x[0] * x[1] * x[2],
        grad=lambda x: np.array(
            [-x[1] * x[2], -x[0] * x[2], -x[0] * x[1], 0.0]),
        hess=hess,
        cons=lambda x: np.array([x[0] + 2.0 * x[1] + 2.0 * x[2] - x[3]]),
        jac_cols=lambda x: np.array([[1.0], [2.0], [2.0], [-1.0]]),
        cons_hess=_no_cons_hess,
        lower=np.zeros(4), upper=np.array([1.0, 1.0, 1.0, 2.0]),
        solution=np.array([2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 2.0]),
        f_star=2.0 - 2.0 / 27.0)


def hs48():
    """min (x1-1)^2 + (x2-x3)^2 + (x4-x5)^2 with two linear equalities."""
    a1 = np.ones(5)
    a2 = np.array([0.0, 0.0, 1.0, -2.0, -2.0])

    def f(x):
        return float((x[0] - 1.0) ** 2 + (x[1] - x[2]) ** 2
                     + (x[3] - x[4]) ** 2)

    def grad(x):
        return np.array([2.0 * (x[0] - 1.0),
                         2.0 * (x[1] - x[2]), -2.0 * (x[1] - x[2]),
                         2.0 * (x[3] - x[4]), -2.0 * (x[3] - x[4])])

    def hess(_x):
        h = np.zeros((5, 5))
        h[0, 0] = 2.0
        h[1, 1] = h[2, 2] = 2.0
        h[1, 2] = h[2, 1] = -2.0
        h[3, 3] = h[4, 4] = 2.0
        h[3, 4] = h[4, 3] = -2.0
        return h

    return NlpProblem(
        name="HS48", n=5, x0=np.array([3.0, 5.0, -3.0, 2.0, -2.0]),
        kinds=("equality", "equality"),
        f=f, grad=grad, hess=hess,
        cons=lambda x: np.array([a1 @ x - 5.0, a2 @ x + 3.0]),
        jac_cols=lambda x: np.column_stack([a1, a2]),
        cons_hess=_no_cons_hess,
        solution=np.ones(5), f_star=0.0)


def hs63():
    """
    min 1000 - x1^2 - 2 x2^2 - x3^2 - x1 x2 - x1 x3  s.t. one linear and
    one spherical equality, x >= 0.
    """
    def f(x):
        return float(1000.0 - x[0] ** 2 - 2.0 * x[1] ** 2 - x[2] ** 2
                     - x[0] * x[1] - x[0] * x[2])

    def grad(x):
        return np.array([-2.0 * x[0] - x[1] - x[2],
                         -4.0 * x[1] - x[0],
                         -2.0 * x[2] - x[0]])

    def hess(_x):
        return np.array([[-2.0, -1.0, -1.0],
                         [-1.0, -4.0, 0.0],
                         [-1.0, 0.0, -2.0]])

    def cons(x):
        return np.array([8.0 * x[0] + 14.0 * x[1] + 7.0 * x[2] - 56.0,
                         x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 25.0])

    def jac_cols(x):
        return np.column_stack([np.array([8.0, 14.0, 7.0]), 2.0 * x])

    def cons_hess(i, x):
        if i == 0:
            return np.zeros((3, 3))
        return 2.0 * np.eye(3)

    return NlpProblem(
        name="HS63", n=3, x0=np.full(3, 2.0),
        kinds=("equality", "equality"),
        f=f, grad=grad, hess=hess,
        cons=cons, jac_cols=jac_cols, cons_hess=cons_hess,
        lower=np.zeros(3),
        solution=np.array([3.512118414, 0.2169881741, 3.552174034]),
        f_star=961.7151721)


def c4_synthetic():
    """
    Ten variables, nine inequalities and one equality: a separable
    quadratic with mixed-activity caps.  At the solution the equality and
    the first five caps are active.
    """
    caps = np.array([0.4, 0.4, 0.4, 0.4, 0.4, 1.0, 1.0, 1.0, 1.0])

    def cons(x):
        return np.concatenate([[np.sum(x) - 5.0], x[:9] - caps])

    def jac_cols(x):
        jac = np.zeros((10, 10))
        jac[:, 0] = 1.0
        for i in range(9):
            jac[i, i + 1] = 1.0
        return jac

    return NlpProblem(
        name="C4-SYN", n=10, x0=np.zeros(10),
        kinds=("equality",) + ("inequality",) * 9,
        f=lambda x: float(np.sum((x - 2.0) ** 2)),
        grad=lambda x: 2.0 * (x - 2.0),
        hess=lambda x: 2.0 * np.eye(10),
        cons=cons, jac_cols=jac_cols, cons_hess=_no_cons_hess,
        solution=np.array([0.4] * 5 + [0.6] * 5),
        f_star=float(5 * 1.6 ** 2 + 5 * 1.4 ** 2))


PROBLEM_BUILDERS = {
    "EQ-QP": eq_qp,
    "INEQ-QP": ineq_qp,
    "BOX-QP": box_qp,
    "HS41": hs41,
    "HS48": hs48,
    "HS63": hs63,
    "C4-SYN": c4_synthetic,
}


def get_problem(name):
    try:
        return PROBLEM_BUILDERS[name]()
    except KeyError:
        raise KeyError("unknown problem %r; available: %s"
                       % (name, ", ".join(sorted(PROBLEM_BUILDERS))))


def problem_names():
    return sorted(PROBLEM_BUILDERS)
