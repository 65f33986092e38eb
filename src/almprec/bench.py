"""
bench.py

Experiment harness: spectral quality of the structured preconditioner,
iteration counts for preconditioned linear solves, and full solver runs
over the built-in problem library.  Emits CSV (17 significant digits) or
an aligned text table derived from the CSV.
"""

import io
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from .alm import AlmConfig, alm_solve
from .auxprecond import KINDS, build_aux
from .krylov import pcg
from .problems import get_problem
from .sparse import SparseSymmetricMatrix, read_matrix_market
from .structured import ColumnSet, StructuredPrecond

DENSE_LIMIT = 2000


@dataclass
class ExperimentConfig:
    kind: str = "spectral"  # spectral | linsys | solve
    matrix: str = ""        # Matrix Market path; empty -> random instance
    n: int = 100
    density: float = 0.05
    m: int = 10
    seed: int = 0
    rho_list: Tuple[float, ...] = (1.5, 15.5, 154.8, 1548.3, 15483.0)
    drop_tol_list: Tuple[float, ...] = (0.1,)
    aux_kind: str = "incomplete-cholesky"
    tol: float = 1e-8
    problems: Tuple[str, ...] = ("EQ-QP",)
    solvers: Tuple[str, ...] = ("truncated-newton",)
    hessian_modes: Tuple[str, ...] = ("NW",)
    policies: Tuple[str, ...] = ("auto",)
    alm: AlmConfig = field(default_factory=AlmConfig)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1, got %r" % self.n)
        if self.m < 0:
            raise ValueError("m must be nonnegative, got %r" % self.m)
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1], got %r"
                             % self.density)
        if not self.tol > 0.0:
            raise ValueError("tol must be positive, got %r" % self.tol)
        for name in ("rho_list", "drop_tol_list", "problems", "solvers",
                     "hessian_modes", "policies"):
            if not getattr(self, name):
                raise ValueError("%s must not be empty" % name)
        if not all(rho > 0.0 for rho in self.rho_list):
            raise ValueError("rho must be positive, got %r"
                             % (self.rho_list,))
        if not all(tol >= 0.0 for tol in self.drop_tol_list):
            raise ValueError("drop tolerance must be nonnegative, got %r"
                             % (self.drop_tol_list,))
        if self.aux_kind not in KINDS:
            raise ValueError("unknown auxiliary preconditioner kind %r"
                             % self.aux_kind)


def random_spd_matrix(n, density, seed):
    """
    Seeded random sparse SPD matrix: symmetric N(0,1) off-diagonals at the
    requested density, then a uniform diagonal shift placing the smallest
    eigenvalue at 1e-3.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.tril_indices(n, k=-1)
    mask = rng.random(rows.size) < density
    vals = rng.standard_normal(int(mask.sum()))
    diag = np.arange(n)
    m = SparseSymmetricMatrix(n, np.r_[rows[mask], diag],
                              np.r_[cols[mask], diag],
                              np.r_[vals, rng.random(n)])
    return m.shifted(1e-3 - m.min_eigenvalue())


def random_constraints(n, m, seed):
    """Standard-normal constraint columns."""
    rng = np.random.default_rng(seed + 1)
    return rng.standard_normal((n, m))


def materialize(apply_op, n):
    """The n x n matrix of a linear operator that takes an (n, k) block:
    its apply to the identity, as one block."""
    return apply_op(np.eye(n))


def _dense_operator(apply_op, n):
    """materialize, refusing operators above DENSE_LIMIT."""
    if n > DENSE_LIMIT:
        raise ValueError("operator too large for dense estimation")
    return materialize(apply_op, n)


def condition_estimate(apply_op, n):
    """kappa_1 = ||A||_1 ||A^-1||_1 via dense materialization; +inf when
    singular to working precision."""
    return _kappa1(_dense_operator(apply_op, n))


def _kappa1(dense):
    """||A||_1 ||A^-1||_1 of a dense matrix; +inf when singular to working
    precision."""
    norm = float(np.abs(dense).sum(axis=0).max())
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError:
        return float("inf")
    inv_norm = float(np.abs(inv).sum(axis=0).max())
    kappa = norm * inv_norm
    return kappa if np.isfinite(kappa) else float("inf")


def _load_matrix(cfg):
    if cfg.matrix:
        return read_matrix_market(cfg.matrix), cfg.matrix
    return random_spd_matrix(cfg.n, cfg.density, cfg.seed), "random"


def _force_spd(m):
    """Diagonal shift making the matrix SPD; returns (matrix, shift)."""
    lam_min = m.min_eigenvalue()
    if lam_min > 0.0:
        return m, 0.0
    shift = abs(lam_min) + 1e-6
    return m.shifted(shift), shift


def _h_apply(m, v_cols, rho):
    def apply_h(x):
        y = m.matvec(x)
        if v_cols.shape[1]:
            y = y + rho * v_cols @ (v_cols.T @ x)
        return y
    return apply_h


def _structured(aux, v_cols, rho):
    n, m_count = v_cols.shape
    cols = ColumnSet(n, np.sqrt(rho) * v_cols, np.ones(m_count),
                     list(range(m_count)))
    return StructuredPrecond(aux, cols)


def spectrum_identity_residual(m, aux, v, rho):
    """
    Maximum per-eigenvalue gap between the preconditioned operator and
    the advertised rank-1 form
    I + (1 - upsilon) P_M^-1 v v' (P_M^-1 M - I).
    """
    n = m.n
    q = materialize(aux.apply, n)
    dense_m = m.to_dense()
    e_m = q @ dense_m - np.eye(n)
    qv = q @ v
    upsilon = rho / (1.0 + rho * float(v @ qv))
    rhs = np.eye(n) + (1.0 - upsilon) * np.outer(qv, v) @ e_m

    sp = _structured(aux, v.reshape(-1, 1), rho)
    h = dense_m + rho * np.outer(v, v)
    lhs = materialize(sp.apply, n) @ h

    lam_lhs = np.sort(np.linalg.eigvals(lhs).real)
    lam_rhs = np.sort(np.linalg.eigvals(rhs).real)
    return float(np.max(np.abs(lam_lhs - lam_rhs)))


def _rho_sweep(cfg):
    """(row head, M, V, aux, H apply, structured preconditioner) for
    every drop tolerance and rho of cfg, one auxiliary per drop
    tolerance."""
    m, name = _load_matrix(cfg)
    m, shift = _force_spd(m)
    v_cols = random_constraints(m.n, cfg.m, cfg.seed)
    for drop_tol in cfg.drop_tol_list:
        aux = build_aux(m, cfg.aux_kind, drop_tol)
        for rho in cfg.rho_list:
            head = {"name": name, "n": m.n, "m": cfg.m, "seed": cfg.seed,
                    "drop_tol": drop_tol, "rho": rho, "spd_shift": shift}
            yield (head, m, v_cols, aux, _h_apply(m, v_cols, rho),
                   _structured(aux, v_cols, rho))


def run_spectral_experiment(cfg):
    rows = []
    for row, m, v_cols, aux, h_apply, sp in _rho_sweep(cfg):
        h = _dense_operator(h_apply, m.n)
        pinv_h = materialize(lambda x: sp.apply(h_apply(x)), m.n)
        row.update({
            "kappa_H": _kappa1(h), "kappa_PH": _kappa1(pinv_h),
            "eig_H": _pack(np.sort(np.linalg.eigvalsh(h))),
            "eig_PH": _pack(np.sort(np.linalg.eigvals(pinv_h).real)),
        })
        if cfg.m == 1:
            row["spectrum_identity_residual"] = spectrum_identity_residual(
                m, aux, v_cols[:, 0], row["rho"])
        rows.append(row)
    return rows


def run_linsys_experiment(cfg):
    rows = []
    for row, m, _, aux, h_apply, sp in _rho_sweep(cfg):
        y = h_apply(np.ones(m.n))
        plain = pcg(h_apply, None, y, tol=cfg.tol)
        prec = pcg(h_apply, sp.apply, y, tol=cfg.tol)
        row.update({
            "nnz_Z": aux.nnz,
            "nnz_Z/n^2": aux.nnz / m.n ** 2,
            "nnz_Z/nnz_M": aux.nnz / max(m.nnz, 1),
            "kappa_H": condition_estimate(h_apply, m.n),
            "kappa_PH": condition_estimate(
                lambda x: sp.apply(h_apply(x)), m.n),
            "CG": plain.iterations if plain.converged else "n/c",
            "PCG": prec.iterations if prec.converged else "n/c",
        })
        rows.append(row)
    return rows


# The result columns of a `solve` row, after its head; a run that raises
# reports "error: ..." as its status and leaves the others empty.
_SOLVE_COLUMNS = ("status", "ItL", "Itin", "Itpd", "Itd", "AcM", "AcV",
                  "f", "kkt_opt", "kkt_feas")


def run_alm_experiment(cfg):
    rows = []
    for problem_name, solver, mode, policy in itertools.product(
            cfg.problems, cfg.solvers, cfg.hessian_modes, cfg.policies):
        p = get_problem(problem_name)
        alm_cfg = replace(cfg.alm, inner_solver=solver, hessian_mode=mode,
                          precond_policy=policy, aux_kind=cfg.aux_kind)
        row = {"problem": problem_name, "n": p.n, "m": p.m,
               "solver": solver, "mode": mode, "policy": policy}
        start = time.perf_counter()
        try:
            rep = alm_solve(p, alm_cfg)
            values = ("n/c" if rep.status == "no convergence"
                      else rep.status,
                      rep.outer_iterations, rep.inner_iterations,
                      rep.krylov_precond, rep.krylov_plain, rep.ac_m,
                      rep.ac_v, rep.f_value, rep.kkt_opt, rep.kkt_feas)
        except Exception as exc:  # per-run failures stay in-row
            values = ("error: %s" % exc,) + ("",) * (len(_SOLVE_COLUMNS) - 1)
        row.update(zip(_SOLVE_COLUMNS, values))
        row["time_s"] = time.perf_counter() - start
        rows.append(row)
    return rows


def run_experiment(cfg):
    if cfg.kind == "spectral":
        return run_spectral_experiment(cfg)
    if cfg.kind == "linsys":
        return run_linsys_experiment(cfg)
    if cfg.kind == "solve":
        return run_alm_experiment(cfg)
    raise ValueError("unknown experiment kind %r" % cfg.kind)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _pack(values):
    return ";".join("%.17g" % v for v in values)


def rows_to_csv(rows, time_column_stable=False):
    """CSV text with a header row.  With time_column_stable, wall-clock
    columns are zeroed so repeated runs are byte-identical."""
    if not rows:
        return "\n"
    columns = list(rows[0].keys())
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        vals = []
        for col in columns:
            v = row.get(col, "")
            if time_column_stable and col == "time_s":
                v = 0.0
            vals.append(_fmt(v))
        out.write(",".join(vals) + "\n")
    return out.getvalue()


def csv_to_table(csv_text):
    """Aligned text rendering derived from the CSV, never recomputed."""
    lines = [l for l in csv_text.splitlines() if l]
    if not lines:
        return ""
    cells = [line.split(",") for line in lines]
    ncol = len(cells[0])
    widths = [max(len(row[i]) if i < len(row) else 0 for row in cells)
              for i in range(ncol)]
    out = []
    for row in cells:
        out.append("  ".join(
            (row[i] if i < len(row) else "").ljust(widths[i])
            for i in range(ncol)).rstrip())
    return "\n".join(out) + "\n"
