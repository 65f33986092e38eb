"""
Bitwise fingerprint of almprec's results, for changes that must leave
them identical.

    python tests/fingerprint.py [CHECKOUT]
    python tests/fingerprint.py --against PARENT [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is a source tree
with `src/almprec`, `perfbench` and `tests/data/solve_grid.cfg`; almprec
and perfbench are imported from it.  Prints one SHA-256 per run and a
total over all of them:

- `grid`: the 126 runs of the `solve` grid in tests/data/solve_grid.cfg
  (every problem x inner solver x Hessian mode x refresh policy);
- `solve-csv`: the `solve` experiment's CSV of that grid, with time
  zeroed, so its row builder is checked too;
- `probe`: the verdict of the QN Hessian model's positive-definiteness
  probe on each grid problem's `hess f` at `x0`, on a singular positive
  semidefinite (Neumann) Laplacian and on a shifted indefinite one, so a
  changed verdict shows even where no run depends on it;
- `restricted`: the Hessian model that `hessian_model(..., free=idx)`
  builds at `x0` on a fixed free set (every third variable, from the
  first, pinned) for each grid problem: NW, QN, and QN with a fixed
  secant pair.  A checkout whose `hessian_model` takes no `free` cuts
  its full model with its `_restrict_model` instead, so against such a
  parent the lines compare the two ways of building the reduced model,
  even where no grid run pins a bound;
- `restricted-memo`: per grid problem, with `hess f`, the Jacobian and
  the constraint Hessians frozen at `x0` as read-only constants, the
  same three models built through one per-solve memo (`_SolveMemo`)
  over the free sets A, A, B, A, none (B another set of A's size), so
  the memo's cached restriction is built, reused and replaced;
- `fallback`: each numerical fallback, forced on a small input:
  - `aux-shift KIND`: the preconditioner manager's auxiliary build of
    an indefinite block (a 5-point Laplacian minus 4 I, whose zero
    diagonal is not stored, and minus 5 I), past the factorizer's own
    retry, for each auxiliary kind but `identity`;
  - `force-spd`: the `bench` shift that makes those two blocks, and an
    SPD one, positive definite;
  - `qn-floor`: the QN model of those two blocks as `hess f`, whose
    probe fails, so the eigenvalue floor sets sigma, on all variables
    and on every other one;
  - `krylov ...`: `truncated_newton_step` on 2 x 2 models whose
    preconditioner breaks down: P^-1 = [[0, 1], [1, 0]] with the
    identity operator (`pcg-repro`) or diag(1, -1) (`minres-repro`) and
    b = e1, the latter with b = (1, 1), where CG meets the indefinite
    operator first and MINRES the breakdown mid-run (`minres-midrun`),
    and a NaN preconditioner on an SPD model (`nan-precond`); a step
    that raises hashes its exception;
- `workload`: the three perfbench workloads at seeds 0-3;
- `counts`: one line for the whole grid and one for each workload,
  hashing only the status and the iteration and refresh counts of the
  runs above, so that `--against` tells a change that moves results at
  rounding level (its `grid` or `workload` lines differ, its `counts`
  lines do not) from one that moves a count;
- `experiment`: the seeded `spectral` and `linsys` experiments at seeds
  0-2 with every auxiliary kind, Jacobi also on a diagonal `M` and
  incomplete Cholesky also with drop tolerance 0.  Jacobi on a diagonal
  `M`, IC(0) and `exact` invert `M` exactly, so their structured
  applies take the refinement step and its product with `M`.  A
  checkout whose `KINDS` names its exact factorization `exact-dense`
  runs that kind instead, under the label `exact`, so against such a
  parent the `exact` lines compare the two factorizations.

An ALM run hashes the raw bytes of `x` and of the multipliers, `f`,
`rho_final`, the three KKT values, the history, the iteration and refresh
counts and the status; a run that raises hashes its exception.  The linsys
workload hashes its solutions, counts and status.  An experiment hashes
its CSV rows, with time columns zeroed.  BLAS runs on one thread, as in
perfbench.

With `--against PARENT`, fingerprints PARENT and CHECKOUT, each in its
own Python process, prints only the lines that differ (`-` from PARENT,
`+` from CHECKOUT) and a one-line summary on stderr, and exits 1 if any
line differs.  To compare a change with its parent:

    git archive HEAD~1 | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python tests/fingerprint.py --against /tmp/parent

pytest does not collect this file.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = range(4)
EXPERIMENT_SEEDS = range(3)
# (aux_kind, density of M, drop tolerances): density 0 gives a diagonal M.
EXPERIMENTS = (
    ("identity", 0.1, (0.1,)),
    ("jacobi", 0.1, (0.1,)),
    ("jacobi", 0.0, (0.1,)),
    ("incomplete-cholesky", 0.1, (0.0, 1e-2)),
    ("exact", 0.1, (0.1,)),
)


def _counts_bytes(rep):
    """The bytes of an AlmReport's status and counts."""
    return repr((rep.status, rep.outer_iterations, rep.inner_iterations,
                 rep.krylov_precond, rep.krylov_plain, rep.ac_m,
                 rep.ac_v)).encode()


def _report_bytes(rep):
    """The bytes of everything an AlmReport says about a solve."""
    scalars = np.array([rep.f_value, rep.rho_final, rep.kkt_opt,
                        rep.kkt_compl, rep.kkt_feas], dtype=np.float64)
    return [np.asarray(rep.x).tobytes(), np.asarray(rep.multipliers).tobytes(),
            scalars.tobytes(), repr(rep.history).encode(),
            _counts_bytes(rep)]


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _grid_config(root):
    """The ExperimentConfig of tests/data/solve_grid.cfg."""
    from almprec.cli import build_experiment_config, parse_config_text

    path = root / "tests" / "data" / "solve_grid.cfg"
    return build_experiment_config(
        "solve", parse_config_text(path.read_text(), source=str(path)))


def grid_runs(root):
    """(label, digest) for every run of the solve grid, then the `counts`
    line of the whole grid."""
    from almprec.alm import alm_solve
    from almprec.problems import get_problem

    cfg = _grid_config(root)
    counts = []
    for name in cfg.problems:
        for solver in cfg.solvers:
            for mode in cfg.hessian_modes:
                for policy in cfg.policies:
                    alm_cfg = replace(cfg.alm, inner_solver=solver,
                                      hessian_mode=mode,
                                      precond_policy=policy,
                                      aux_kind=cfg.aux_kind)
                    try:
                        rep = alm_solve(get_problem(name), alm_cfg)
                        parts = _report_bytes(rep)
                        counts.append(_counts_bytes(rep))
                    except Exception as exc:
                        parts = [repr(exc).encode()]
                        counts.append(parts[0])
                    yield ("grid %s %s %s %s" % (name, solver, mode, policy),
                           _digest(parts))
    yield "counts grid", _digest(counts)


def solve_csv_run(root):
    """(label, digest) of the solve grid's CSV, time zeroed."""
    from almprec.bench import rows_to_csv, run_experiment

    csv = rows_to_csv(run_experiment(_grid_config(root)),
                      time_column_stable=True)
    yield "solve-csv", _digest([csv.encode()])


def _laplacian(k, neumann):
    """Dense 5-point Laplacian on a k x k grid; with `neumann`, its rows
    sum to zero, so it is singular positive semidefinite."""
    t = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    if neumann:
        t[0, 0] = t[-1, -1] = 1.0
    return np.kron(t, np.eye(k)) + np.kron(np.eye(k), t)


def probe_runs(root):
    """(label, digest) of each probe verdict, as hessian_model receives
    it: the probe is wrapped only to record what it returns, so this runs
    on any checkout whatever the probe's signature."""
    from almprec import alm
    from almprec.problems import NlpProblem, get_problem

    problems = [get_problem(name) for name in _grid_config(root).problems]
    matrices = [(p.name, p.hess(p.x0)) for p in problems]
    matrices += [("laplacian-neumann-8", _laplacian(8, True)),
                 ("laplacian-minus-3-8", _laplacian(8, False)
                  - 3.0 * np.eye(64))]
    probe, verdicts = alm._positive_definite, []

    def recorded(a):
        verdicts.append(probe(a))
        return verdicts[-1]
    alm._positive_definite = recorded
    try:
        for name, hess in matrices:
            n = hess.shape[0]
            p = NlpProblem(name=name, n=n, x0=np.zeros(n), kinds=(),
                           f=None, grad=None, hess=lambda x, h=hess: h,
                           cons=lambda x: np.zeros(0),
                           jac_cols=lambda x, n=n: np.zeros((n, 0)),
                           cons_hess=None)
            alm.hessian_model(p, p.x0, np.zeros(0), 10.0, "QN")
    finally:
        alm._positive_definite = probe
    for (name, _), verdict in zip(matrices, verdicts, strict=True):
        yield "probe %s" % name, _digest([repr(verdict).encode()])


def _model_bytes(model):
    """The bytes of everything a HessianModel holds."""
    m, cols = model.m_part, model.cols
    return [repr((m.n, model.sigma, cols.n, cols.labels,
                  cols.notes)).encode(),
            m.rows.tobytes(), m.cols.tobytes(), m.vals.tobytes(),
            cols.columns.tobytes(), cols.signs.tobytes()]


def restricted_runs(root):
    """(label, digest) of each reduced Hessian model at x0."""
    from almprec import alm
    from almprec.problems import get_problem

    direct = "free" in inspect.signature(alm.hessian_model).parameters
    for name in _grid_config(root).problems:
        p = get_problem(name)
        pinned = np.arange(p.n) % 3 == 0
        s = np.linspace(1.0, 2.0, p.n)
        secant = (s, p.hess(p.x0) @ s + s)
        for label, mode, pair in (("NW", "NW", None), ("QN", "QN", None),
                                  ("QN-secant", "QN", secant)):
            args = (p, p.x0, np.ones(p.m), 10.0, mode)
            try:
                if direct:
                    model = alm.hessian_model(
                        *args, secant=pair, free=np.flatnonzero(~pinned))
                else:
                    model, _ = alm._restrict_model(
                        alm.hessian_model(*args, secant=pair), ~pinned)
                parts = _model_bytes(model)
            except Exception as exc:
                parts = [repr(exc).encode()]
            yield "restricted %s %s" % (name, label), _digest(parts)


def _frozen_at_x0(p):
    """A copy of `p` whose hess, jac_cols and cons_hess return their
    value at x0 as the same read-only array on every call: constants
    that a _SolveMemo keeps."""
    def frozen(a):
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
        return a
    hess, jac = frozen(p.hess(p.x0)), frozen(p.jac_cols(p.x0))
    cons_hess = [frozen(p.cons_hess(i, p.x0)) for i in range(p.m)]
    return replace(p, hess=lambda x: hess, jac_cols=lambda x: jac,
                   cons_hess=lambda i, x: cons_hess[i])


def restricted_memo_runs(root):
    """(label, digest) of the reduced models at x0 built through one
    memo over a sequence of free sets."""
    from almprec import alm
    from almprec.problems import get_problem

    for name in _grid_config(root).problems:
        p = _frozen_at_x0(get_problem(name))
        free = np.arange(p.n) % 3 != 0
        first, other = np.flatnonzero(free), np.flatnonzero(np.roll(free, 1))
        s = np.linspace(1.0, 2.0, p.n)
        secant = (s, p.hess(p.x0) @ s + s)
        memo, parts = alm._SolveMemo(), []
        for mode, pair in (("NW", None), ("QN", None), ("QN", secant)):
            for free in (first, first.copy(), other, first.copy(), None):
                try:
                    parts += _model_bytes(alm.hessian_model(
                        p, p.x0, np.ones(p.m), 10.0, mode, secant=pair,
                        free=free, _memo=memo))
                except Exception as exc:
                    parts.append(repr(exc).encode())
        yield "restricted-memo %s" % name, _digest(parts)


def _shifted_laplacians():
    """(label, dense) of the indefinite 8 x 8 grid blocks the fallback
    lines force."""
    return [("laplacian-minus-%d" % shift,
             _laplacian(8, False) - shift * np.eye(64)) for shift in (4, 5)]


def fallback_runs():
    """(label, digest) of each forced numerical fallback."""
    from almprec import alm, bench
    from almprec.auxprecond import KINDS
    from almprec.inner import InnerConfig, truncated_newton_step
    from almprec.problems import NlpProblem
    from almprec.sparse import SparseSymmetricMatrix

    blocks = [(label, SparseSymmetricMatrix.from_dense(dense))
              for label, dense in _shifted_laplacians()]
    r = np.linspace(1.0, 2.0, 64)
    for kind in KINDS:
        if kind == "identity":
            continue
        parts = []
        for _, m in blocks:
            manager = alm.PrecondManager(alm.AlmConfig(aux_kind=kind))
            aux = manager._build_aux(m)
            parts += [repr((aux.kind, aux.shift, aux.nnz,
                            manager.aux_fallbacks)).encode(),
                      aux.apply(r).tobytes()]
        yield "fallback aux-shift %s" % kind, _digest(parts)

    parts = []
    for m in [m for _, m in blocks] + [
            SparseSymmetricMatrix.from_dense(_laplacian(8, False))]:
        spd, shift = bench._force_spd(m)
        parts += [repr(shift).encode(), spd.rows.tobytes(),
                  spd.cols.tobytes(), spd.vals.tobytes()]
    yield "fallback force-spd", _digest(parts)

    parts = []
    for _, hess in _shifted_laplacians():
        p = NlpProblem(name="QN-FLOOR", n=64, x0=np.zeros(64), kinds=(),
                       f=None, grad=None, hess=lambda x, h=hess: h,
                       cons=lambda x: np.zeros(0),
                       jac_cols=lambda x: np.zeros((64, 0)), cons_hess=None)
        for free in (None, np.arange(0, 64, 2)):
            parts += _model_bytes(alm.hessian_model(
                p, p.x0, np.zeros(0), 10.0, "QN", free=free))
    yield "fallback qn-floor", _digest(parts)

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e1 = np.array([1.0, 0.0])
    cases = (("pcg-repro", np.eye(2), swap, e1),
             ("minres-repro", np.diag([1.0, -1.0]), swap, e1),
             ("minres-midrun", np.diag([1.0, -1.0]), swap, np.ones(2)),
             ("nan-precond", np.diag([1.0, 2.0]), np.full((2, 2), np.nan),
              e1))
    for label, op, precond, b in cases:
        try:
            step = truncated_newton_step(lambda v, a=op: a @ v, -b,
                                         lambda v, q=precond: q @ v,
                                         InnerConfig())
            parts = [repr((step.solver, step.preconditioned,
                           step.fallback_gradient, step.converged,
                           step.krylov_iterations)).encode(),
                     step.direction.tobytes()]
        except Exception as exc:
            parts = [repr(exc).encode()]
        yield "fallback krylov %s" % label, _digest(parts)


def workload_runs():
    """(label, digest) for every perfbench workload and seed, and after
    each workload's seeds its `counts` line."""
    from perfbench.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        counts = []
        for seed in SEEDS:
            outcome = workload.solve(workload.setup(seed))
            parts = [repr((outcome.status, outcome.counts)).encode()]
            counts.append(parts[0])
            if isinstance(outcome.payload, list):
                parts += [np.asarray(v).tobytes() for v in outcome.payload]
            else:
                parts += _report_bytes(outcome.payload)
            yield "workload %s %d" % (name, seed), _digest(parts)
        yield "counts workload %s" % name, _digest(counts)


def experiment_runs():
    """(label, digest) for every seeded spectral and linsys experiment."""
    from almprec.auxprecond import KINDS
    from almprec.bench import ExperimentConfig, rows_to_csv, run_experiment

    for kind in ("spectral", "linsys"):
        for aux_kind, density, drop_tols in EXPERIMENTS:
            for seed in EXPERIMENT_SEEDS:
                run_kind = (aux_kind if aux_kind in KINDS
                            else {"exact": "exact-dense"}[aux_kind])
                cfg = ExperimentConfig(kind=kind, n=30, density=density,
                                       m=3, seed=seed,
                                       drop_tol_list=drop_tols,
                                       aux_kind=run_kind)
                try:
                    parts = [rows_to_csv(run_experiment(cfg),
                                         time_column_stable=True).encode()]
                except Exception as exc:
                    parts = [repr(exc).encode()]
                yield ("experiment %s %s %g %d"
                       % (kind, aux_kind, density, seed), _digest(parts))


def fingerprint(root):
    """Print the fingerprint of the checkout at `root`."""
    sys.path[:0] = [str(root / "src"), str(root)]
    import almprec
    if not Path(almprec.__file__).resolve().is_relative_to(root / "src"):
        print("almprec imported from %s, not from %s"
              % (almprec.__file__, root / "src"), file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for label, digest in (*grid_runs(root), *solve_csv_run(root),
                          *probe_runs(root), *restricted_runs(root),
                          *restricted_memo_runs(root), *fallback_runs(),
                          *workload_runs(),
                          *experiment_runs()):
        print(label, digest)
        total.update(digest.encode())
    print("total", total.hexdigest())
    return 0


def _lines(root):
    """The fingerprint of `root`, from a fresh interpreter, by label;
    None, after passing on its stderr, when that run fails."""
    run = subprocess.run([sys.executable, __file__, str(root)],
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return None
    return dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())


def against(parent, root):
    """Print the fingerprint lines that differ between `parent` and
    `root`; 1 if any do, 2 if either run fails."""
    old, new = _lines(parent), _lines(root)
    if old is None or new is None:
        return 2
    differ = 0
    for label in [*old, *(label for label in new if label not in old)]:
        if old.get(label) != new.get(label):
            differ += 1
            for sign, lines in (("-", old), ("+", new)):
                if label in lines:
                    print(sign, label, lines[label])
    print("%d of %d lines differ" % (differ, len(old.keys() | new.keys())),
          file=sys.stderr)
    return 1 if differ else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Bitwise fingerprint of almprec's results.")
    parser.add_argument("checkout", nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--against", metavar="PARENT",
                        help="print only the lines that differ from PARENT")
    args = parser.parse_args(argv[1:])
    root = Path(args.checkout).resolve()
    if args.against is not None:
        return against(Path(args.against).resolve(), root)
    return fingerprint(root)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
