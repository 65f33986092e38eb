"""
alm.py

Powell-Hestenes-Rockafellar Augmented Lagrangian outer loop: merit
evaluations, Hessian models, multiplier/penalty/safeguard updates, KKT
residuals, preconditioner administration and the solver driver.
"""

import weakref
from dataclasses import dataclass, field

import numpy as np

from .auxprecond import KINDS, build_aux
from .inner import (active_bound_mask, project_box, projected_descent,
                    spg_solve, truncated_newton_step)
from .problems import is_constant
from .sparse import SparseSymmetricMatrix
from .structured import (ColumnSet, DenominatorBreakdownError,
                         StructuredPrecond, build_column_set, column_norms,
                         decide_update)
# Re-exported, not used here: perfbench's layer tracer wraps the target
# `almprec.alm:assemble_B` (test_traced_counts_match_untraced).
from .structured import assemble_B  # noqa: F401

INNER_SOLVERS = ("truncated-newton", "spg", "pspg")
HESSIAN_MODES = ("NW", "QN")
PRECOND_POLICIES = ("auto", "every-outer", "once")

# The PHR method's fixed parameters.  Each is read when alm_solve and its
# updates run, so a test can patch it on this module.
RHO1 = 10.0          # the first penalty parameter
GAMMA = 10.0         # update_penalty's growth factor on poor progress
TAU = 0.5            # the progress measure's required reduction
LAM_MIN = -1e20      # safeguard's box for the equality multipliers
LAM_MAX = 1e20
MU_MAX = 1e20        # and its cap on the inequality multipliers
SIGMA_MIN = 1e-8     # the QN model's smallest spectral shift
# Each subproblem after the first is solved to the projected-gradient
# tolerance max(AlmConfig.inner_tol, INNER_TOL_PER_MEASURE * measure),
# measure being update_penalty's progress measure after the outer
# iteration before it (LANCELOT, Conn, Gould & Toint 1991; ALGENCAN,
# Birgin & Martinez 2014).
INNER_TOL_PER_MEASURE = 5e-4


class SettingError(ValueError):
    """A config check's rejection; `field` names the field it read."""

    def __init__(self, message, field):
        super().__init__(message)
        self.field = field


@dataclass
class AlmConfig:
    eps_opt: float = 1e-6
    eps_feas: float = 1e-6
    max_outer: int = 50
    inner_solver: str = "truncated-newton"
    hessian_mode: str = "NW"
    aux_kind: str = "incomplete-cholesky"
    drop_tol: float = 1e-2
    precond_policy: str = "auto"  # see PrecondManager

    def __post_init__(self):
        for name, what, legal in (
                ("inner_solver", "inner solver", INNER_SOLVERS),
                ("hessian_mode", "hessian mode", HESSIAN_MODES),
                ("precond_policy", "policy", PRECOND_POLICIES),
                ("aux_kind", "auxiliary preconditioner kind", KINDS)):
            value = getattr(self, name)
            if value not in legal:
                raise SettingError("unknown %s %r" % (what, value), name)
        for name in ("drop_tol", "eps_opt", "eps_feas"):
            value = getattr(self, name)
            if isinstance(value, bool):  # an int, so read as 0 or 1
                raise SettingError("%s must be a number, got %r"
                                   % (name, value), name)
        if not self.drop_tol >= 0.0:
            raise SettingError("drop tolerance must be nonnegative, got %r"
                               % self.drop_tol, "drop_tol")
        if (isinstance(self.max_outer, bool)
                or not isinstance(self.max_outer, (int, np.integer))):
            raise SettingError("max_outer must be an integer, got %r"
                               % self.max_outer, "max_outer")
        if self.max_outer < 1:
            raise SettingError("max_outer must be at least 1, got %r"
                               % self.max_outer, "max_outer")
        for name in ("eps_opt", "eps_feas"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # NaN fails too
                raise SettingError("%s must be positive and finite, got %r"
                                   % (name, value), name)
        if not self.inner_tol > 0.0:
            raise SettingError("eps_opt / 10 underflows to 0, got eps_opt "
                               "= %r" % self.eps_opt, "eps_opt")

    @property
    def inner_tol(self):
        """The first subproblem's projected-gradient tolerance and the
        floor of every later one's (INNER_TOL_PER_MEASURE)."""
        return 0.1 * self.eps_opt


@dataclass
class AlmReport:
    problem: str
    status: str
    x: np.ndarray
    multipliers: np.ndarray
    f_value: float
    rho_final: float
    outer_iterations: int
    inner_iterations: int
    krylov_precond: int
    krylov_plain: int
    ac_m: int
    ac_v: int
    kkt_opt: float
    kkt_compl: float
    kkt_feas: float
    history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == "converged"


# ---------------------------------------------------------------------------
# Augmented Lagrangian evaluations
# ---------------------------------------------------------------------------

def eval_al(p, x, lam, rho):
    """PHR merit: f + rho/2 sum_E [c + lam/rho]^2
    + rho/2 sum_I [max(0, c + lam/rho)]^2."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    shifted = p.cons(x) + lam / rho
    shifted = np.where(p.equality, shifted, np.maximum(0.0, shifted))
    # Left to right from f, the order the tests pin; np.sum is pairwise.
    return float(sum((0.5 * rho * shifted ** 2).tolist(), p.f(x)))


def shifted_multipliers(p, x, lam, rho, c=None):
    """lam_hat = lam + rho c, clipped at zero for inequalities."""
    if c is None:
        c = p.cons(x)
    lam_hat = lam + rho * c
    return np.where(p.equality, lam_hat, np.maximum(0.0, lam_hat))


def eval_al_grad(p, x, lam, rho):
    """grad f + sum_i lam_hat_i grad c_i with the clipped shift."""
    c = p.cons(x)
    lam_hat = shifted_multipliers(p, x, lam, rho, c)
    g = p.grad(x).copy()
    if p.m:
        g += p.jac_cols(x) @ lam_hat
    return g


# ---------------------------------------------------------------------------
# Hessian models
# ---------------------------------------------------------------------------

@dataclass
class HessianModel:
    m_part: SparseSymmetricMatrix
    sigma: float
    cols: ColumnSet

    def apply(self, x):
        y = self.m_part.matvec(x)
        if self.cols.m:
            coeffs = self.cols.signs * (self.cols.columns.T @ x)
            y += self.cols.columns @ coeffs
        return y


# Where a _SolveMemo keeps its cut of an array's matrix and that cut's
# shift.
_CUT = "cut"


class _SolveMemo:
    """
    Values derived from problem arrays, computed once per solve.  Only an
    array the problem declares constant is memoised: a read-only ndarray
    that owns its data (`problems.is_constant`), returned again as the
    same object.  Writeable arrays and views are derived afresh on every
    call.  Entries hold a weak reference to their array and are dropped
    when it dies, so a fresh read-only array per call is not kept alive
    and a reused id never finds stale values.  The reference's callback
    holds the memo weakly, so a memo is freed, with all it holds, as
    soon as its solve drops it, with no cycle left to collect.

    The same rule decides when an inner iteration cannot have changed
    the model: `restricted` then returns the object it returned before,
    and `build_column_set` hands back the held column set of a constant
    Jacobian, so `decide_update` sees the held M and set themselves and
    compares neither.
    """

    def __init__(self):
        self._entries = {}

    def _values(self, a):
        """The dict of values memoised for `a`; None unless `a` is a
        memoised constant."""
        if not is_constant(a):
            return None
        entries, ident = self._entries, id(a)
        ref, values = entries.get(ident, (None, None))
        if ref is None or ref() is not a:
            # The memo is held weakly, so the callback closes no cycle.
            def forget(dead, memo=weakref.ref(self)):
                entries = getattr(memo(), "_entries", {})
                if entries.get(ident, (None,))[0] is dead:
                    del entries[ident]
            ref, values = weakref.ref(a, forget), {}
            entries[ident] = ref, values
        return values

    def value(self, a, key, compute):
        """compute(a), from the memo when `a` is a memoised constant."""
        values = self._values(a)
        if values is None:
            return compute(a)
        if key not in values:
            values[key] = compute(a)
        return values[key]

    def restricted(self, a, whole, free, sigma=None):
        """whole.submatrix(free), or whole when `free` is None, shifted by
        `sigma` (`shifted`) unless that is None; `whole` is derived from
        `a` alone.  While `a` is a memoised constant the memo keeps its
        latest cut, reused while the caller passes the same `free` object
        (sets are told apart by identity), and that cut's latest shift,
        reused for an equal sigma.  Each is released before its successor
        is built."""
        values = self._values(a)
        if values is None:
            values = {}  # not kept: derived afresh on every call
        slot = values.get(_CUT)
        if slot is None or slot[0] is not free:
            slot = values[_CUT] = None  # released before the next
            # [free, the cut, sigma, the cut shifted by sigma]
            slot = values[_CUT] = [
                free, whole if free is None else whole.submatrix(free),
                None, None]
        if sigma is None:
            return slot[1]
        if slot[2] != sigma:
            slot[2:] = None, None  # released before the next
            slot[2:] = sigma, slot[1].shifted(sigma)
        return slot[3]


def hessian_model(p, x, lam, rho, mode, secant=None, free=None,
                  held=None, _memo=None):
    """
    NW: M = hess f + sum of active lam_hat_i hess c_i, columns are the
    active constraint gradients; constraint Hessians that are zero are
    skipped, and the others are added sparsely (`plus`).  QN:
    M = hess f + sigma I with the secant-based spectral shift, at least
    SIGMA_MIN, columns augmented with the two BFGS correction vectors
    when the curvature test passes and the model does not already map s
    to y: the pair is left out when ||y - w|| <= SECANT_NOOP_RTOL ||y||
    = 1e-6 ||y||, w = H+ s the model's own product (`build_column_set`).
    On a QP with linear constraints the model hess f + sigma I
    + rho J_A J_A' is exact, so there the pair, which would force a new
    B each inner iteration, goes: such pairs measured at most 5.5e-8,
    and every informative pair at least 2.2e-4.

    `free`, an increasing index array, builds the model on those
    variables only: the principal submatrix of M and the rows `free` of
    the columns, a column that vanishes there included.  Everything else
    (lam_hat, sigma, which columns are kept and their order, the secant
    test) is computed on the whole space, so the model is bit for bit
    the full one cut down afterwards: sparse hess f and each constraint
    Hessian NW adds are cut before `plus` sums them in the term order,
    and QN adds sigma to the cut hess f (`shifted`).

    QN's M may be indefinite, as hess f may be: truncated Newton stops
    CG at negative curvature, and build_aux shifts an auxiliary it
    cannot factor.

    The dense hess f and constraint Hessians are read a block of rows at
    a time (`from_dense`), so besides them the model needs O(nnz)
    memory.

    `_memo` (a _SolveMemo; alm_solve passes one per solve) caches what
    the model derives from arrays the problem declares constant (see
    NlpProblem): sparse hess f, whether each constraint Hessian is zero
    and the sparse form of the others, the 2-norms of the Jacobian's
    columns, and those sparse matrices cut down to `free` and, for QN,
    shifted by sigma (`restricted`).  Without one the call takes a fresh
    memo of its own, and the model is bit for bit the same.

    `held`, the column set of the preconditioner held for this same
    `free` object, is passed to `build_column_set`, which returns it
    unchanged when the Jacobian is a constant and nothing the set is
    built from moved (see there).  Its columns are then the new ones in
    the held order, so only the rounding of the model's low-rank sum can
    differ.
    """
    if mode not in HESSIAN_MODES:
        raise ValueError("unknown hessian mode %r" % mode)
    if _memo is None:
        _memo = _SolveMemo()
    c = p.cons(x)
    lam_hat = shifted_multipliers(p, x, lam, rho, c)
    jac = p.jac_cols(x)
    norms = _memo.value(jac, "column norms", column_norms)
    hess_f = p.hess(x)
    sparse_f = _memo.value(hess_f, "sparse",
                           SparseSymmetricMatrix.from_dense)

    if mode == "NW":
        terms = []
        for i in np.flatnonzero(lam_hat).tolist():
            h = p.cons_hess(i, x)
            if _memo.value(h, "nonzero", np.any):
                term = _memo.value(h, "sparse",
                                   SparseSymmetricMatrix.from_dense)
                terms.append((lam_hat[i], _memo.restricted(h, term, free)))
        m_part = _memo.restricted(hess_f, sparse_f, free)
        m_part = m_part.plus(terms) if terms else m_part
        cols = build_column_set(jac, p.equality, c, lam, rho, free=free,
                                norms=norms, held=held)
        return HessianModel(m_part, 0.0, cols)

    # QN mode
    sigma = SIGMA_MIN
    gn_s = None
    if secant is not None:
        s, y = (np.asarray(v, dtype=np.float64) for v in secant)
        ss = float(s @ s)
        if ss > 0.0:
            # Gauss-Newton product (hess f + rho J_A J_A') s over the
            # equalities and active inequalities, accumulated column by
            # column: one GEMV J_A (J_A' s) would round differently.
            gn_s = hess_f @ s
            for i in np.flatnonzero(p.equality | (lam_hat > 0.0)):
                gn_s = gn_s + rho * jac[:, i] * float(jac[:, i] @ s)
            sigma = max(float((y - gn_s) @ s) / ss, SIGMA_MIN)

    m_part = _memo.restricted(hess_f, sparse_f, free, sigma)
    secant_arg = (s, y, gn_s + sigma * s) if gn_s is not None else None
    cols = build_column_set(jac, p.equality, c, lam, rho, secant=secant_arg,
                            free=free, norms=norms, held=held)
    return HessianModel(m_part, sigma, cols)


# ---------------------------------------------------------------------------
# Outer-iteration updates
# ---------------------------------------------------------------------------

def update_penalty(rho, prev_measure, c, lam_bar, equality):
    """Step 4: keep rho when the progress measure fell to at most TAU
    times the previous one, else multiply it by GAMMA.  The measure is
    the largest of |c| over the equalities and |min(-c, lam_bar/rho)|
    over the inequalities.  Returns (rho_new, measure)."""
    measure = float(np.max(np.abs(
        np.where(equality, c, np.minimum(-c, lam_bar / rho))), initial=0.0))
    if prev_measure is None or measure <= TAU * prev_measure:
        return rho, measure
    return rho * GAMMA, measure


def safeguard(lam_hat, equality):
    """Step 5: clamp the shifted multipliers into [LAM_MIN, LAM_MAX] on
    the equalities and into [0, MU_MAX] on the inequalities."""
    return np.clip(lam_hat, np.where(equality, LAM_MIN, 0.0),
                   np.where(equality, LAM_MAX, MU_MAX))


def kkt_residuals(p, x, lam, c=None):
    """
    opt  = ||P_box(x - grad Lagrangian) - x||_inf
    compl = max over E of |c|, over I of |min(-c, lam)|
    feas  = max over E of |c|, over I of (c)_+
    `c` is p.cons(x) when the caller has it already.
    """
    if c is None:
        c = p.cons(x)
    grad_l = p.grad(x).copy()
    if p.m:
        grad_l += p.jac_cols(x) @ lam
    opt = float(np.max(
        np.abs(project_box(x - grad_l, p.lower, p.upper) - x), initial=0.0))
    eq = p.equality
    compl = np.where(eq, c, np.minimum(-c, lam))
    feas = np.where(eq, np.abs(c), np.maximum(0.0, c))
    return (opt, float(np.max(np.abs(compl), initial=0.0)),
            float(np.max(feas, initial=0.0)))


# ---------------------------------------------------------------------------
# Preconditioner administration
# ---------------------------------------------------------------------------

class PrecondManager:
    """
    Owns the (aux, cols, B) bundle across inner iterations and applies
    the configured refresh policy (`AlmConfig.precond_policy`): `auto`
    refreshes what `decide_update` asks for, `every-outer` rebuilds both
    blocks on the first get of each outer iteration, and `once` keeps
    the first bundle.  Under every policy a change of the free set
    rebuilds both blocks: the reduced system is then another matrix,
    of another order or on other variables, that neither the auxiliary
    nor B was built for.  So with bounds `once` builds once per free
    set, not once per solve, and `every-outer` also rebuilds within an
    outer iteration.  AcM counts refreshes that rebuilt the auxiliary
    block, AcV those that rebuilt only the storage matrix.

    `held_cols` hands the held column set back to the next model built
    for the same free set; a model that returns it, and the held M,
    unchanged is known unchanged without a comparison (`decide_update`).
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.ac_m = 0
        self.ac_v = 0
        self._m = None
        self._precond = None
        self.free = None
        self._outer_boundary = True
        self.aux_fallbacks = 0
        self.column_drops = 0

    def notify_outer(self):
        self._outer_boundary = True

    def _assemble_with_recovery(self, aux, cols):
        """The preconditioner on `aux` for `cols`, dropping any column
        with a near-singular pivot (`without_labels`) and retrying."""
        while True:
            try:
                return StructuredPrecond(aux, cols)
            except DenominatorBreakdownError as exc:
                self.column_drops += 1
                cols = cols.without_labels((exc.label,))

    def held_cols(self, free):
        """The column set of the preconditioner held for the free set
        `free`, the same object; None when there is none."""
        if self._precond is None or free is not self.free:
            return None
        return self._precond.cols

    def get(self, model, free=None):
        """The preconditioner for `model`.  `free` is the index array of
        the variables a restricted model keeps (None: all of them).  The
        cache holds for one free set, the object last passed
        (`self.free`); any other object rebuilds from scratch."""
        m_part, cols = model.m_part, model.cols
        if self._precond is None or free is not self.free:
            refresh_aux = refresh_b = True
        elif self.cfg.precond_policy == "once":
            refresh_aux = refresh_b = False
        elif self.cfg.precond_policy == "every-outer":
            refresh_aux = refresh_b = self._outer_boundary
        else:
            reason = decide_update(self._m, m_part, self._precond.cols, cols)
            refresh_aux, refresh_b = reason == "M-changed", reason != "none"
        self._outer_boundary = False
        self.free = free

        if refresh_aux:
            aux = build_aux(m_part, self.cfg.aux_kind, self.cfg.drop_tol)
            self.aux_fallbacks += bool(aux.shift)
            self._m = m_part
            self.ac_m += 1
        else:
            aux = self._precond.aux
        if refresh_b:
            self._precond = self._assemble_with_recovery(aux, cols)
            if not refresh_aux:
                self.ac_v += 1
        return self._precond


# ---------------------------------------------------------------------------
# Sub-problems
# ---------------------------------------------------------------------------

@dataclass
class _Subproblem:
    """One ALM sub-problem: the merit, its gradient, and the Hessian model
    with its preconditioner on the free variables (`free_system`), which
    both inner solvers read."""
    p: object
    lam_bar: np.ndarray
    rho: float
    cfg: AlmConfig
    manager: PrecondManager
    memo: _SolveMemo

    def merit(self, z):
        return eval_al(self.p, z, self.lam_bar, self.rho)

    def grad(self, z):
        return eval_al_grad(self.p, z, self.lam_bar, self.rho)

    def free_system(self, z, g, s, y):
        """(model, preconditioner, free): the Hessian model at z with the
        secant pair (s, y), built on the variables `free` that the
        gradient g leaves free (hessian_model's `free`), and a
        preconditioner that inverts that reduced matrix.  `free` is an
        index array, or slice(None) when nothing is pinned; then the model
        is the full one.  None when every variable is pinned: there is no
        model to build.  This is the one owner of the free set: a set
        equal to the one the manager holds (`PrecondManager.free`) is
        passed on as that same array, so the memo and the manager tell
        sets apart by identity, and with it the manager's held column
        set (`held_cols`), which the model returns when it is unchanged."""
        act = active_bound_mask(z, g, self.p.lower, self.p.upper)
        if act.all():
            return None
        free = np.flatnonzero(~act) if np.any(act) else None
        last = self.manager.free  # None: nothing pinned, or no set yet
        if free is not None and np.array_equal(free, last):
            free = last
        model = hessian_model(self.p, z, self.lam_bar, self.rho,
                              self.cfg.hessian_mode,
                              secant=(s, y) if s is not None else None,
                              free=free, held=self.manager.held_cols(free),
                              _memo=self.memo)
        return (model, self.manager.get(model, free),
                slice(None) if free is None else free)


@dataclass
class _SubStats:
    iterations: int = 0
    krylov_precond: int = 0
    krylov_plain: int = 0
    status: str = ""  # the inner solver's SpgResult status


def _solve_subproblem(p, x, lam_bar, rho, cfg, manager, memo, grad_tol):
    """Minimise the merit over the box from x with the configured inner
    solver, to the projected-gradient tolerance `grad_tol`, which also
    sets where truncated Newton's CG stops.  Returns (x, stats)."""
    sub = _Subproblem(p, lam_bar, rho, cfg, manager, memo)
    stats = _SubStats()

    def tn_direction(z, g, pg, s, y):
        # Bound-pinned components take the raw gradient (clipped by the
        # projection); the model is solved on the free variables only.
        system = sub.free_system(z, g, s, y)
        if system is None:
            return -g
        model, precond, free = system
        step = truncated_newton_step(model, g[free], precond, grad_tol)
        stats.krylov_precond += step.krylov_precond
        stats.krylov_plain += step.krylov_plain
        d = -g
        d[free] = step.direction
        return d

    def pspg_metric(z, g, s, y):
        system = sub.free_system(z, g, s, y)
        return None if system is None else (system[1].apply, system[2])

    if cfg.inner_solver == "truncated-newton":
        result = projected_descent(sub.merit, sub.grad, p.lower, p.upper, x,
                                   grad_tol, tn_direction)
    else:
        result = spg_solve(sub.merit, sub.grad, p.lower, p.upper, x,
                           grad_tol,
                           precond=pspg_metric if cfg.inner_solver == "pspg"
                           else None)
    stats.iterations, stats.status = result.iterations, result.status
    return result.x, stats


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def alm_solve(p, cfg=None):
    """Run the outer loop until the KKT tolerances hold or max_outer is
    reached."""
    cfg = cfg if cfg is not None else AlmConfig()
    manager = PrecondManager(cfg)
    memo = _SolveMemo()
    x = project_box(p.x0.copy(), p.lower, p.upper)
    lam_bar = np.zeros(p.m)
    rho = RHO1
    prev_measure = None
    grad_tol = cfg.inner_tol  # the first subproblem's
    history = []
    totals = _SubStats()
    status = "no convergence"

    for outer in range(1, cfg.max_outer + 1):
        manager.notify_outer()
        x, stats = _solve_subproblem(p, x, lam_bar, rho, cfg, manager,
                                     memo, grad_tol)
        totals.iterations += stats.iterations
        totals.krylov_precond += stats.krylov_precond
        totals.krylov_plain += stats.krylov_plain

        # Step 3's shifted multipliers serve the KKT test, the report and
        # the safeguarded update alike.
        c = p.cons(x)
        lam_hat = shifted_multipliers(p, x, lam_bar, rho, c)
        opt, compl, feas = kkt_residuals(p, x, lam_hat, c)
        history.append({"outer": outer, "rho": rho, "f": p.f(x),
                        "opt": opt, "compl": compl, "feas": feas,
                        "inner": stats.iterations})
        if opt <= cfg.eps_opt and compl <= cfg.eps_feas \
                and feas <= cfg.eps_feas:
            status = "converged"
            break
        if stats.status == "line-search-failure":
            status = "inner solver failure: line search"
            break

        rho, prev_measure = update_penalty(rho, prev_measure, c, lam_bar,
                                           p.equality)
        grad_tol = max(cfg.inner_tol, INNER_TOL_PER_MEASURE * prev_measure)
        lam_bar = safeguard(lam_hat, p.equality)

    return AlmReport(
        problem=p.name, status=status, x=x, multipliers=lam_hat,
        f_value=history[-1]["f"], rho_final=rho, outer_iterations=outer,
        inner_iterations=totals.iterations,
        krylov_precond=totals.krylov_precond,
        krylov_plain=totals.krylov_plain,
        ac_m=manager.ac_m, ac_v=manager.ac_v,
        kkt_opt=opt, kkt_compl=compl, kkt_feas=feas, history=history)
