"""
alm.py

Powell-Hestenes-Rockafellar Augmented Lagrangian outer loop: merit
evaluations, Hessian models, multiplier/penalty/safeguard updates, KKT
residuals, preconditioner administration and the solver driver.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .auxprecond import KINDS, FactorizationError, build_aux
from .inner import (InnerConfig, active_bound_mask, project_box, spg_solve,
                    truncated_newton_step)
from .sparse import SparseSymmetricMatrix
from .structured import (LABEL_BFGS_W, LABEL_BFGS_Y, ColumnSet,
                         DenominatorBreakdownError, StructuredPrecond,
                         UpdateThresholds, assemble_B, build_column_set,
                         decide_update)

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
    precond_policy: str = "auto"
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
    c = p.cons(x)
    total = p.f(x)
    for i, kind in enumerate(p.kinds):
        shifted = c[i] + lam[i] / rho
        if kind == "inequality":
            shifted = max(0.0, shifted)
        total += 0.5 * rho * shifted ** 2
    return float(total)


def shifted_multipliers(p, x, lam, rho, c=None):
    """lam_hat = lam + rho c, clipped at zero for inequalities."""
    if c is None:
        c = p.cons(x)
    lam_hat = lam + rho * c
    for i, kind in enumerate(p.kinds):
        if kind == "inequality":
            lam_hat[i] = max(0.0, lam_hat[i])
    return lam_hat


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
    n: int
    m_part: SparseSymmetricMatrix
    sigma: float
    cols: ColumnSet
    lam_hat: np.ndarray

    def apply(self, x):
        y = self.m_part.matvec(x)
        if self.cols.m:
            coeffs = self.cols.signs * (self.cols.columns.T @ x)
            y = y + self.cols.columns @ coeffs
        return y

    def to_dense(self):
        dense = self.m_part.to_dense()
        for i in range(self.cols.m):
            v = self.cols.columns[:, i]
            dense = dense + self.cols.signs[i] * np.outer(v, v)
        return dense


def hessian_model(p, x, lam, rho, mode, thresholds=None, secant=None,
                  sigma_min=1e-8):
    """
    NW: M = hess f + sum of active lam_hat_i hess c_i, columns are the
    active constraint gradients.  QN: M = hess f + sigma I with the
    secant-based spectral shift, columns augmented with the two BFGS
    correction vectors when the curvature test passes.
    """
    if mode not in HESSIAN_MODES:
        raise ValueError("unknown hessian mode %r" % mode)
    th = thresholds if thresholds is not None else UpdateThresholds()
    c = p.cons(x)
    lam_hat = shifted_multipliers(p, x, lam, rho, c)
    jac = p.jac_cols(x)
    jac_list = [jac[:, i] for i in range(p.m)]

    if mode == "NW":
        dense_m = p.hess(x).copy()
        for i, kind in enumerate(p.kinds):
            if lam_hat[i] != 0.0:
                dense_m += lam_hat[i] * p.cons_hess(i, x)
        m_part = SparseSymmetricMatrix.from_dense(dense_m)
        cols = build_column_set(jac_list, p.kinds, c, lam, rho, th, n=p.n)
        return HessianModel(p.n, m_part, 0.0, cols, lam_hat)

    # QN mode
    hess_f = p.hess(x)
    active = [i for i, kind in enumerate(p.kinds)
              if kind == "equality" or lam_hat[i] > 0.0]

    def gauss_newton_apply(vec):
        out = hess_f @ vec
        for i in active:
            out = out + rho * jac_list[i] * float(jac_list[i] @ vec)
        return out

    sigma = sigma_min
    secant_cols = None
    if secant is not None:
        s, y = (np.asarray(v, dtype=np.float64) for v in secant)
        ss = float(s @ s)
        if ss > 0.0:
            sigma = max(float((y - gauss_newton_apply(s)) @ s) / ss,
                        sigma_min)
            secant_cols = (s, y)

    # The shift must leave M positive definite for the auxiliary factor;
    # when hess f is indefinite the floor scales with the negative
    # curvature so the factored block stays well conditioned.
    lam_min_f = float(np.linalg.eigvalsh(hess_f).min())
    floor = (sigma_min if lam_min_f > 0.0
             else 1e-1 * (1.0 + abs(lam_min_f)))
    sigma = max(sigma, floor - lam_min_f)
    m_part = SparseSymmetricMatrix.from_dense(hess_f + sigma * np.eye(p.n))

    def hplus_apply(vec):
        return gauss_newton_apply(vec) + sigma * vec

    secant_arg = ((secant_cols[0], secant_cols[1], hplus_apply)
                  if secant_cols is not None else None)
    cols = build_column_set(jac_list, p.kinds, c, lam, rho, th,
                            secant=secant_arg, n=p.n)
    return HessianModel(p.n, m_part, sigma, cols, lam_hat)


# ---------------------------------------------------------------------------
# Outer-iteration updates
# ---------------------------------------------------------------------------

def update_multipliers(lam_bar, mu_bar, rho, h_vals, g_vals):
    """Step 3: lam = lam_bar + rho h; mu = (mu_bar + rho g)_+ ."""
    lam = lam_bar + rho * np.asarray(h_vals, dtype=np.float64)
    mu = np.maximum(0.0, mu_bar + rho * np.asarray(g_vals, dtype=np.float64))
    return lam, mu


def progress_measure(h_vals, g_vals, mu_bar, rho):
    """max of ||h||_inf and ||min(-g, mu_bar/rho)||_inf."""
    parts = [np.max(np.abs(h_vals), initial=0.0)]
    if len(g_vals):
        v = np.minimum(-np.asarray(g_vals), np.asarray(mu_bar) / rho)
        parts.append(np.max(np.abs(v), initial=0.0))
    return float(max(parts))


def update_penalty(rho, prev_measure, h_vals, g_vals, mu_bar, tau, gamma):
    """Step 4: keep rho on sufficient progress, else multiply by gamma.
    Returns (rho_new, measure)."""
    measure = progress_measure(h_vals, g_vals, mu_bar, rho)
    if prev_measure is None or measure <= tau * prev_measure:
        return rho, measure
    return rho * gamma, measure


def safeguard(lam, mu, cfg):
    """Step 5: clamp lam into [lam_min, lam_max] and mu into [0, mu_max]."""
    lam_bar = np.clip(lam, cfg.lam_min, cfg.lam_max)
    mu_bar = np.clip(mu, 0.0, cfg.mu_max)
    return lam_bar, mu_bar


def kkt_multipliers(p, x, lam_bar, rho, c=None):
    """Piecewise multiplier estimate: shifted value for equalities and
    active inequalities, zero otherwise."""
    if c is None:
        c = p.cons(x)
    lam = np.zeros(p.m)
    for i, kind in enumerate(p.kinds):
        shifted = lam_bar[i] + rho * c[i]
        if kind == "equality" or shifted > 0.0:
            lam[i] = shifted
    return lam


def kkt_residuals(p, x, lam):
    """
    opt  = ||P_box(x - grad Lagrangian) - x||_inf
    compl = max over E of |c|, over I of |min(-c, lam)|
    feas  = max over E of |c|, over I of (c)_+
    """
    c = p.cons(x)
    grad_l = p.grad(x).copy()
    if p.m:
        grad_l += p.jac_cols(x) @ lam
    opt = float(np.max(
        np.abs(project_box(x - grad_l, p.lower, p.upper) - x), initial=0.0))
    compl = 0.0
    feas = 0.0
    for i, kind in enumerate(p.kinds):
        if kind == "equality":
            compl = max(compl, abs(c[i]))
            feas = max(feas, abs(c[i]))
        else:
            compl = max(compl, abs(min(-c[i], lam[i])))
            feas = max(feas, max(0.0, c[i]))
    return opt, float(compl), float(feas)


# ---------------------------------------------------------------------------
# Preconditioner administration
# ---------------------------------------------------------------------------

class PrecondManager:
    """
    Owns the (aux, cols, B) bundle across inner iterations and applies
    the configured refresh policy.  AcM counts refreshes that rebuilt the
    auxiliary block, AcV those that rebuilt only the storage matrix.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.ac_m = 0
        self.ac_v = 0
        self._aux = None
        self._m = None
        self._cols = None
        self._bs = None
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
        try:
            lam_min = float(np.linalg.eigvalsh(m_part.to_dense()).min())
            shifted = SparseSymmetricMatrix.from_dense(
                m_part.to_dense()
                + (abs(lam_min) + 1e-1) * np.eye(m_part.n))
            return build_aux(shifted, self.cfg.aux_kind, self.cfg.drop_tol)
        except FactorizationError:
            return build_aux(m_part, "identity")

    def _assemble_with_recovery(self, cols, prev_bs, prev_cols):
        """Assemble B, dropping any column whose recursion denominator is
        near-singular (both secant columns go together) and retrying."""
        while True:
            try:
                return assemble_B(self._aux, cols, prev=prev_bs,
                                  prev_cols=prev_cols), cols
            except DenominatorBreakdownError as exc:
                self.column_drops += 1
                if exc.label in (LABEL_BFGS_Y, LABEL_BFGS_W):
                    cols = cols.without_labels((LABEL_BFGS_Y, LABEL_BFGS_W))
                else:
                    cols = cols.without_labels((exc.label,))

    def get(self, model):
        m_part, cols = model.m_part, model.cols
        if self._m is not None and self._m.n != m_part.n:
            # Dimension changed (free-subspace restriction): full rebuild.
            self._aux = self._bs = self._cols = None
        if self._aux is None:
            refresh_aux, refresh_b = True, True
        elif self.cfg.precond_policy == "once":
            refresh_aux = refresh_b = False
        elif self.cfg.precond_policy == "every-outer":
            refresh_aux = refresh_b = self._outer_boundary
        else:
            decision = decide_update(self._m, m_part, self._cols, cols,
                                     self.cfg.thresholds)
            refresh_aux, refresh_b = decision.refresh_aux, decision.refresh_b
        self._outer_boundary = False

        if refresh_aux:
            self._aux = self._build_aux(m_part)
            self._m = m_part
            self.ac_m += 1
        if refresh_b or (refresh_aux and self._bs is None):
            prev_bs, prev_cols = ((self._bs, self._cols)
                                  if not refresh_aux else (None, None))
            self._bs, self._cols = self._assemble_with_recovery(
                cols, prev_bs, prev_cols)
            if not refresh_aux:
                self.ac_v += 1
        if self._bs is None:
            return None
        return StructuredPrecond(self._aux, self._cols, self._bs)


def _restrict_model(model, free):
    """Principal-submatrix restriction of a Hessian model to the free
    variables; near-null restricted columns are dropped."""
    idx = np.flatnonzero(free)
    dense = model.m_part.to_dense()[np.ix_(idx, idx)]
    m_red = SparseSymmetricMatrix.from_dense(dense)
    cols_mat = model.cols.columns[idx, :]
    keep = [j for j in range(model.cols.m)
            if np.linalg.norm(cols_mat[:, j]) > 1e-12]
    cols_red = ColumnSet(idx.size, cols_mat[:, keep],
                         model.cols.signs[keep],
                         [model.cols.labels[j] for j in keep],
                         model.cols.notes)
    return HessianModel(idx.size, m_red, model.sigma, cols_red,
                        model.lam_hat), idx


class _SpgPrecondProvider:
    """Adapts the manager to the spg_solve provider contract.  When bound
    components are pinned, the preconditioner is rebuilt on the free
    subspace so it inverts the reduced system, not a restriction of the
    full inverse."""

    def __init__(self, p, lam_bar, rho, cfg, manager):
        self.p = p
        self.lam_bar = lam_bar
        self.rho = rho
        self.cfg = cfg
        self.manager = manager

    def get(self, z, s, y):
        secant = (s, y) if s is not None else None
        model = hessian_model(self.p, z, self.lam_bar, self.rho,
                              self.cfg.hessian_mode, self.cfg.thresholds,
                              secant=secant, sigma_min=self.cfg.sigma_min)
        g = eval_al_grad(self.p, z, self.lam_bar, self.rho)
        act = active_bound_mask(z, g, self.p.lower, self.p.upper)
        if not np.any(act):
            return self.manager.get(model)
        reduced, idx = _restrict_model(model, ~act)
        inner_op = self.manager.get(reduced)
        if inner_op is None:
            return None
        n = self.p.n

        def apply(r):
            out = np.zeros(n)
            out[idx] = inner_op.apply(np.asarray(r, dtype=np.float64)[idx])
            return out
        return apply


# ---------------------------------------------------------------------------
# Sub-problem drivers
# ---------------------------------------------------------------------------

@dataclass
class _SubStats:
    iterations: int = 0
    krylov_precond: int = 0
    krylov_plain: int = 0
    status: str = "ok"


def _solve_truncated_newton(p, x, lam_bar, rho, cfg, manager):
    icfg = replace(cfg.inner, grad_tol=cfg.effective_inner_tol)
    stats = _SubStats()
    z = project_box(x, p.lower, p.upper)
    g = eval_al_grad(p, z, lam_bar, rho)
    fz = eval_al(p, z, lam_bar, rho)
    f_memory = [fz]
    s_prev = y_prev = None

    for _ in range(icfg.max_iterations):
        pg = project_box(z - g, p.lower, p.upper) - z
        if np.max(np.abs(pg), initial=0.0) <= icfg.grad_tol:
            break
        stats.iterations += 1

        secant = (s_prev, y_prev) if s_prev is not None else None
        model = hessian_model(p, z, lam_bar, rho, cfg.hessian_mode,
                              cfg.thresholds, secant=secant,
                              sigma_min=cfg.sigma_min)
        precond = manager.get(model)

        act = active_bound_mask(z, g, p.lower, p.upper)
        if np.any(act):
            # Solve the model on the free variables only; bound-pinned
            # components take the raw gradient (clipped by the projection).
            free = ~act

            def masked_model(vec, _free=free):
                return np.where(_free, model.apply(np.where(_free, vec,
                                                            0.0)), 0.0)

            masked_precond = None
            if precond is not None:
                def masked_precond(r, _free=free, _p=precond):
                    return np.where(_free, _p.apply(np.where(_free, r,
                                                             0.0)), 0.0)
            step = truncated_newton_step(masked_model,
                                         np.where(free, g, 0.0),
                                         masked_precond, icfg)
            d = np.where(free, step.direction, -g)
        else:
            step = truncated_newton_step(model, g, precond, icfg)
            d = step.direction
        if step.preconditioned:
            stats.krylov_precond += step.krylov_iterations
        else:
            stats.krylov_plain += step.krylov_iterations
        f_ref = max(f_memory)
        t = 1.0
        accepted = False
        trial = z
        f_trial = fz
        for _bt in range(icfg.max_backtracks + 1):
            trial = project_box(z + t * d, p.lower, p.upper)
            slope = float(g @ (trial - z))
            if slope >= 0.0:
                break
            f_trial = eval_al(p, trial, lam_bar, rho)
            if f_trial <= f_ref + icfg.sufficient_decrease * slope:
                accepted = True
                break
            t *= icfg.backtrack
        if not accepted:
            # Retry once along the projected gradient.
            d = pg
            t = 1.0
            for _bt in range(icfg.max_backtracks + 1):
                trial = project_box(z + t * d, p.lower, p.upper)
                slope = float(g @ (trial - z))
                f_trial = eval_al(p, trial, lam_bar, rho)
                if slope < 0.0 and (f_trial
                                    <= f_ref
                                    + icfg.sufficient_decrease * slope):
                    accepted = True
                    break
                t *= icfg.backtrack
        if not accepted:
            stats.status = "line-search-failure"
            break

        g_trial = eval_al_grad(p, trial, lam_bar, rho)
        s_prev = trial - z
        y_prev = g_trial - g
        z, g, fz = trial, g_trial, f_trial
        f_memory.append(fz)
        if len(f_memory) > icfg.memory:
            f_memory.pop(0)
    return z, stats


def _solve_spg(p, x, lam_bar, rho, cfg, manager, preconditioned):
    icfg = replace(cfg.inner, grad_tol=cfg.effective_inner_tol)
    provider = (_SpgPrecondProvider(p, lam_bar, rho, cfg, manager)
                if preconditioned else None)
    result = spg_solve(lambda z: eval_al(p, z, lam_bar, rho),
                       lambda z: eval_al_grad(p, z, lam_bar, rho),
                       p.lower, p.upper, x, icfg, precond=provider)
    stats = _SubStats(iterations=result.iterations)
    if result.status == "line-search-failure":
        stats.status = result.status
    return result.x, stats


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def alm_solve(p, cfg=None):
    """Run the outer loop until the KKT tolerances hold or max_outer is
    reached."""
    cfg = cfg if cfg is not None else AlmConfig()
    manager = PrecondManager(cfg)
    x = project_box(p.x0.copy(), p.lower, p.upper)
    lam_bar = np.zeros(p.m)
    rho = cfg.rho1
    prev_measure = None
    history = []
    totals = _SubStats()
    status = "no convergence"
    lam_kkt = np.zeros(p.m)
    outer = 0

    for outer in range(1, cfg.max_outer + 1):
        manager.notify_outer()
        if cfg.inner_solver == "truncated-newton":
            x, stats = _solve_truncated_newton(p, x, lam_bar, rho, cfg,
                                               manager)
        else:
            x, stats = _solve_spg(p, x, lam_bar, rho, cfg, manager,
                                  preconditioned=(cfg.inner_solver
                                                  == "pspg"))
        totals.iterations += stats.iterations
        totals.krylov_precond += stats.krylov_precond
        totals.krylov_plain += stats.krylov_plain

        c = p.cons(x)
        lam_kkt = kkt_multipliers(p, x, lam_bar, rho, c)
        opt, compl, feas = kkt_residuals(p, x, lam_kkt)
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

        h_vals = np.array([c[i] for i, k in enumerate(p.kinds)
                           if k == "equality"])
        g_vals = np.array([c[i] for i, k in enumerate(p.kinds)
                           if k == "inequality"])
        eq_idx = [i for i, k in enumerate(p.kinds) if k == "equality"]
        in_idx = [i for i, k in enumerate(p.kinds) if k == "inequality"]
        lam_eq, mu_in = update_multipliers(
            lam_bar[eq_idx], lam_bar[in_idx], rho, h_vals, g_vals)
        rho, prev_measure = update_penalty(rho, prev_measure, h_vals,
                                           g_vals, lam_bar[in_idx], cfg.tau,
                                           cfg.gamma)
        lam_eq, mu_in = safeguard(lam_eq, mu_in, cfg)
        lam_bar = lam_bar.copy()
        lam_bar[eq_idx] = lam_eq
        lam_bar[in_idx] = mu_in

    opt, compl, feas = kkt_residuals(p, x, lam_kkt)
    return AlmReport(
        problem=p.name, status=status, x=x, multipliers=lam_kkt,
        f_value=p.f(x), rho_final=rho, outer_iterations=outer,
        inner_iterations=totals.iterations,
        krylov_precond=totals.krylov_precond,
        krylov_plain=totals.krylov_plain,
        ac_m=manager.ac_m, ac_v=manager.ac_v,
        kkt_opt=opt, kkt_compl=compl, kkt_feas=feas, history=history)
