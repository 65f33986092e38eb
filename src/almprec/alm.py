"""
alm.py

Powell-Hestenes-Rockafellar Augmented Lagrangian outer loop: merit
evaluations, Hessian models, multiplier/penalty/safeguard updates, KKT
residuals, preconditioner administration and the solver driver.
"""

import weakref
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .auxprecond import KINDS, FactorizationError, build_aux, ldlt
from .inner import (InnerConfig, active_bound_mask, project_box,
                    projected_descent, spg_solve, truncated_newton_step)
from .sparse import SparseSymmetricMatrix
from .structured import (LABEL_BFGS_W, LABEL_BFGS_Y, ColumnSet,
                         DenominatorBreakdownError, StructuredPrecond,
                         UpdateThresholds, build_column_set, column_norms,
                         decide_update)
# Re-exported, not used here: perfbench's layer tracer wraps the target
# `almprec.alm:assemble_B`, and test_traced_counts_match_untraced checks
# that it resolves.  StructuredPrecond assembles through
# structured.assemble_B itself.
from .structured import assemble_B  # noqa: F401

INNER_SOLVERS = ("truncated-newton", "spg", "pspg")
HESSIAN_MODES = ("NW", "QN")
PRECOND_POLICIES = ("auto", "every-outer", "once")


@dataclass
class AlmConfig:
    rho1: float = 10.0
    gamma: float = 10.0
    tau: float = 0.5
    lam_min: float = -1e20
    lam_max: float = 1e20
    mu_max: float = 1e20
    eps_opt: float = 1e-6
    eps_feas: float = 1e-6
    max_outer: int = 50
    inner_solver: str = "truncated-newton"
    hessian_mode: str = "NW"
    thresholds: UpdateThresholds = field(default_factory=UpdateThresholds)
    aux_kind: str = "incomplete-cholesky"
    drop_tol: float = 1e-2
    precond_policy: str = "auto"  # see PrecondManager
    sigma_min: float = 1e-8
    inner_tol: Optional[float] = None  # defaults to eps_opt / 10
    inner: InnerConfig = field(default_factory=InnerConfig)

    def __post_init__(self):
        if self.rho1 <= 0 or self.gamma <= 1 or not 0 < self.tau < 1:
            raise ValueError("require rho1 > 0, gamma > 1, 0 < tau < 1")
        if self.lam_min >= self.lam_max or self.mu_max <= 0:
            raise ValueError("bad multiplier safeguard bounds")
        if self.inner_solver not in INNER_SOLVERS:
            raise ValueError("unknown inner solver %r" % self.inner_solver)
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError("unknown hessian mode %r" % self.hessian_mode)
        if self.precond_policy not in PRECOND_POLICIES:
            raise ValueError("unknown policy %r" % self.precond_policy)
        if self.aux_kind not in KINDS:
            raise ValueError("unknown auxiliary preconditioner kind %r"
                             % self.aux_kind)
        if not self.drop_tol >= 0.0:
            raise ValueError("drop tolerance must be nonnegative, got %r"
                             % self.drop_tol)
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1, got %r"
                             % self.max_outer)

    @property
    def effective_inner_tol(self):
        return self.inner_tol if self.inner_tol is not None \
            else 0.1 * self.eps_opt


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
            y = y + self.cols.columns @ coeffs
        return y


def _positive_definite(a):
    """Whether the SparseSymmetricMatrix a - tau I is positive definite,
    with the margin tau = 10 n eps ||a||_1, by the pivot signs of its
    sparse LDL' (`ldlt`)."""
    full = a.to_csr()
    # Column sums of |a| in row order, the order of a dense axis-0 sum.
    tau = (10.0 * a.n * np.finfo(np.float64).eps
           * np.bincount(full.indices, np.abs(full.data), minlength=a.n).max())
    return ldlt(full, -tau) is not None


_RESTRICTION = "restriction"  # where a _SolveMemo keeps its restriction


class _SolveMemo:
    """
    Values derived from problem arrays, computed once per solve.  Only an
    array the problem declares constant is memoised: a read-only ndarray
    that owns its data (`not a.flags.writeable and a.base is None`),
    returned again as the same object.  Writeable arrays and views are
    derived afresh on every call.  Entries hold a weak reference to their
    array and are dropped when it dies, so a fresh read-only array per
    call is not kept alive and a reused id never finds stale values.

    Beside those values the memo keeps at most one restriction: a
    memoised matrix cut down to a free set (`restricted`).
    """

    def __init__(self, enabled=True):
        self._entries = {} if enabled else None

    def _values(self, a):
        """The dict of values memoised for `a`; None unless `a` is a
        memoised constant."""
        if (self._entries is None or not isinstance(a, np.ndarray)
                or a.flags.writeable or a.base is not None):
            return None
        entries, ident = self._entries, id(a)
        ref, values = entries.get(ident, (None, None))
        if ref is None or ref() is not a:
            def forget(dead):
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

    def restricted(self, a, whole, free):
        """whole.submatrix(free), where `whole` is derived from `a` alone
        and `free` is an index array.  While `a` is a memoised constant
        the memo keeps this restriction, keyed on `a` and on `free`
        itself, compared by value; it releases it before it builds the
        next."""
        values = self._values(a)
        if values is None:
            return whole.submatrix(free)
        held = values.get(_RESTRICTION)
        if held is None or not np.array_equal(held[0], free):
            for _, other in list(self._entries.values()):
                other.pop(_RESTRICTION, None)
            held = values[_RESTRICTION] = free, whole.submatrix(free)
        return held[1]


_NO_MEMO = _SolveMemo(enabled=False)


def hessian_model(p, x, lam, rho, mode, thresholds=None, secant=None,
                  sigma_min=1e-8, free=None, _memo=_NO_MEMO):
    """
    NW: M = hess f + sum of active lam_hat_i hess c_i, columns are the
    active constraint gradients; constraint Hessians that are zero are
    skipped, and the others are added sparsely (`plus`).  QN:
    M = hess f + sigma I with the secant-based spectral shift, columns
    augmented with the two BFGS correction vectors when the curvature
    test passes.

    `free`, an increasing index array, builds the model on those
    variables only: the principal submatrix of M and the rows `free` of
    the columns, without a column whose restricted 2-norm is at most
    1e-12.  Everything else (lam_hat, sigma, which columns are kept and
    their order, the secant test) is computed on the whole space, so the
    model is bit for bit the full one cut down afterwards.  NW cuts its
    block with `submatrix`; QN cuts sparse hess f before adding sigma
    (`shifted`), so it builds no matrix of the full order beyond the
    memoised one.

    QN keeps M positive definite by raising sigma to a floor set by the
    smallest eigenvalue of hess f (`min_eigenvalue`).  When hess f is
    positive definite the floor never raises sigma, so the eigenvalue is
    only computed when a probe of hess f - tau I fails,
    tau = 10 n eps ||hess f||_1: the pivots of its unpivoted sparse LDL'
    must all be positive (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10-11).  The margin tau keeps the probe failing on a
    singular positive semidefinite hess f, whose computed smallest
    eigenvalue may be exactly zero and then sets the floor.

    The dense hess f and constraint Hessians are read a block of rows at
    a time (`from_dense`), so besides them the model needs O(nnz)
    memory, except for the eigenvalues of QN when the probe fails.

    `_memo` (a _SolveMemo; alm_solve passes one per solve) caches what
    the model derives from arrays the problem declares constant (see
    NlpProblem): sparse hess f, whether each constraint Hessian is zero
    and the sparse form of the others, the 2-norms of the Jacobian's
    columns, and QN's probe verdict and smallest eigenvalue.  With
    `free` it also keeps sparse hess f cut down to `free` until the free
    set changes.  The model is bit for bit the one built without it.
    """
    if mode not in HESSIAN_MODES:
        raise ValueError("unknown hessian mode %r" % mode)
    th = thresholds if thresholds is not None else UpdateThresholds()
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
                terms.append((lam_hat[i], _memo.value(
                    h, "sparse", SparseSymmetricMatrix.from_dense)))
        if terms:
            m_part = sparse_f.plus(terms)
            if free is not None:
                m_part = m_part.submatrix(free)
        elif free is not None:
            m_part = _memo.restricted(hess_f, sparse_f, free)
        else:
            m_part = sparse_f
        cols = build_column_set(jac, p.equality, c, lam, rho, th, free=free,
                                norms=norms)
        return HessianModel(m_part, 0.0, cols)

    # QN mode
    sigma = sigma_min
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
            sigma = max(float((y - gn_s) @ s) / ss, sigma_min)

    # The shift must leave M positive definite for the auxiliary factor;
    # when hess f is indefinite the floor scales with the negative
    # curvature so the factored block stays well conditioned.
    if not _memo.value(hess_f, "positive definite",
                       lambda _: _positive_definite(sparse_f)):
        lam_min_f = _memo.value(hess_f, "min eigenvalue",
                                lambda _: sparse_f.min_eigenvalue())
        floor = (sigma_min if lam_min_f > 0.0
                 else 1e-1 * (1.0 + abs(lam_min_f)))
        sigma = max(sigma, floor - lam_min_f)
    if free is not None:
        sparse_f = _memo.restricted(hess_f, sparse_f, free)
    m_part = sparse_f.shifted(sigma)

    # w = H+ s takes the final sigma, after the floor above.
    secant_arg = (s, y, gn_s + sigma * s) if gn_s is not None else None
    cols = build_column_set(jac, p.equality, c, lam, rho, th,
                            secant=secant_arg, free=free, norms=norms)
    return HessianModel(m_part, sigma, cols)


# ---------------------------------------------------------------------------
# Outer-iteration updates
# ---------------------------------------------------------------------------

def update_penalty(rho, prev_measure, c, lam_bar, equality, tau, gamma):
    """Step 4: keep rho on sufficient progress, else multiply by gamma.
    The progress measure is the largest of |c| over the equalities and
    |min(-c, lam_bar/rho)| over the inequalities.  Returns
    (rho_new, measure)."""
    measure = float(np.max(np.abs(
        np.where(equality, c, np.minimum(-c, lam_bar / rho))), initial=0.0))
    if prev_measure is None or measure <= tau * prev_measure:
        return rho, measure
    return rho * gamma, measure


def safeguard(lam_hat, equality, cfg):
    """Step 5: clamp the shifted multipliers into [lam_min, lam_max] on
    the equalities and into [0, mu_max] on the inequalities."""
    return np.clip(lam_hat, np.where(equality, cfg.lam_min, 0.0),
                   np.where(equality, cfg.lam_max, cfg.mu_max))


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
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.ac_m = 0
        self.ac_v = 0
        self._aux = None
        self._m = None
        self._precond = None
        self._free = None
        self._outer_boundary = True
        self.aux_fallbacks = 0
        self.column_drops = 0

    def notify_outer(self):
        self._outer_boundary = True

    def _build_aux(self, m_part):
        try:
            return build_aux(m_part, self.cfg.aux_kind, self.cfg.drop_tol)
        except FactorizationError:
            self.aux_fallbacks += 1
        # The block is indefinite beyond the factorizer's built-in retry:
        # factor a spectrally shifted SPD copy, or fail over to identity.
        shifted = m_part.shifted(abs(m_part.min_eigenvalue()) + 1e-1)
        try:
            return build_aux(shifted, self.cfg.aux_kind, self.cfg.drop_tol)
        except FactorizationError:
            return build_aux(m_part, "identity")

    def _assemble_with_recovery(self, cols):
        """The preconditioner for `cols`, dropping any column with a
        near-singular pivot (both secant columns go together) and retrying."""
        while True:
            try:
                return StructuredPrecond(self._aux, cols)
            except DenominatorBreakdownError as exc:
                self.column_drops += 1
                if exc.label in (LABEL_BFGS_Y, LABEL_BFGS_W):
                    cols = cols.without_labels((LABEL_BFGS_Y, LABEL_BFGS_W))
                else:
                    cols = cols.without_labels((exc.label,))

    def get(self, model, free=None):
        """The preconditioner for `model`.  `free` names the variables a
        restricted model keeps, as an index array or a sequence of
        indices (None: all of them).  The cache holds for one free set
        only, so any other set rebuilds from scratch.  Its key is `free`
        as given when the set first came, compared by value with later
        ones, so an array and a tuple of the same indices are one set."""
        m_part, cols = model.m_part, model.cols
        new_set = not (free is self._free or (
            free is not None and self._free is not None
            and np.array_equal(free, self._free)))
        if self._aux is None or new_set:
            refresh_aux = refresh_b = True
        elif self.cfg.precond_policy == "once":
            refresh_aux = refresh_b = False
        elif self.cfg.precond_policy == "every-outer":
            refresh_aux = refresh_b = self._outer_boundary
        else:
            decision = decide_update(self._m, m_part, self._precond.cols,
                                     cols, self.cfg.thresholds)
            refresh_aux, refresh_b = decision.refresh_aux, decision.refresh_b
        self._outer_boundary = False
        if new_set:
            self._free = free

        if refresh_aux:
            self._aux = self._build_aux(m_part)
            self._m = m_part
            self.ac_m += 1
        if refresh_b:
            self._precond = self._assemble_with_recovery(cols)
            if not refresh_aux:
                self.ac_v += 1
        return self._precond


# ---------------------------------------------------------------------------
# Sub-problems
# ---------------------------------------------------------------------------

class _Subproblem:
    """One ALM sub-problem: the merit, its gradient, and the Hessian model
    with its preconditioner on the free variables.  Both inner solvers
    read `free_system`; its .get is the spg_solve provider, returning
    the reduced apply and the index `free` that truncated Newton uses."""

    def __init__(self, p, lam_bar, rho, cfg, manager, memo):
        self.p = p
        self.lam_bar = lam_bar
        self.rho = rho
        self.cfg = cfg
        self.manager = manager
        self.memo = memo

    def merit(self, z):
        return eval_al(self.p, z, self.lam_bar, self.rho)

    def grad(self, z):
        return eval_al_grad(self.p, z, self.lam_bar, self.rho)

    def free_system(self, z, g, s, y):
        """(model, preconditioner, free): the Hessian model at z with the
        secant pair (s, y), built on the variables `free` that the
        gradient g leaves free (hessian_model's `free`), and a
        preconditioner that inverts that reduced matrix rather than
        restricting the full-space inverse.  `free` is an index array, or
        slice(None) when nothing is pinned; then the model is the full
        one."""
        act = active_bound_mask(z, g, self.p.lower, self.p.upper)
        free = np.flatnonzero(~act) if np.any(act) else None
        model = hessian_model(self.p, z, self.lam_bar, self.rho,
                              self.cfg.hessian_mode, self.cfg.thresholds,
                              secant=(s, y) if s is not None else None,
                              sigma_min=self.cfg.sigma_min, free=free,
                              _memo=self.memo)
        return (model, self.manager.get(model, free),
                slice(None) if free is None else free)

    def get(self, z, g, s, y):
        """(apply, free): the free-system preconditioner's apply, which
        acts on vectors restricted to `free`."""
        _, precond, free = self.free_system(z, g, s, y)
        return precond.apply, free


@dataclass
class _SubStats:
    iterations: int = 0
    krylov_precond: int = 0
    krylov_plain: int = 0
    status: str = ""  # the inner solver's SpgResult status


def _solve_subproblem(p, x, lam_bar, rho, cfg, manager, memo):
    """Minimise the merit over the box from x with the configured inner
    solver.  Returns (x, stats)."""
    icfg = replace(cfg.inner, grad_tol=cfg.effective_inner_tol)
    sub = _Subproblem(p, lam_bar, rho, cfg, manager, memo)
    stats = _SubStats()

    def tn_direction(z, g, pg, s, y):
        # Bound-pinned components take the raw gradient (clipped by the
        # projection); the model is solved on the free variables only.
        model, precond, free = sub.free_system(z, g, s, y)
        step = truncated_newton_step(model, g[free], precond, icfg)
        if step.preconditioned:
            stats.krylov_precond += step.krylov_iterations
        else:
            stats.krylov_plain += step.krylov_iterations
        d = -g
        d[free] = step.direction
        return d

    if cfg.inner_solver == "truncated-newton":
        result = projected_descent(sub.merit, sub.grad, p.lower, p.upper, x,
                                   icfg, tn_direction)
    else:
        result = spg_solve(sub.merit, sub.grad, p.lower, p.upper, x, icfg,
                           precond=sub if cfg.inner_solver == "pspg"
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
    rho = cfg.rho1
    prev_measure = None
    history = []
    totals = _SubStats()
    status = "no convergence"

    for outer in range(1, cfg.max_outer + 1):
        manager.notify_outer()
        x, stats = _solve_subproblem(p, x, lam_bar, rho, cfg, manager,
                                     memo)
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
                                           p.equality, cfg.tau, cfg.gamma)
        lam_bar = safeguard(lam_hat, p.equality, cfg)

    return AlmReport(
        problem=p.name, status=status, x=x, multipliers=lam_hat,
        f_value=history[-1]["f"], rho_final=rho, outer_iterations=outer,
        inner_iterations=totals.iterations,
        krylov_precond=totals.krylov_precond,
        krylov_plain=totals.krylov_plain,
        ac_m=manager.ac_m, ac_v=manager.ac_v,
        kkt_opt=opt, kkt_compl=compl, kkt_feas=feas, history=history)
