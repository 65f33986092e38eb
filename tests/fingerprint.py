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
- `workload`: the three perfbench workloads at seeds 0-3;
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


def _report_bytes(rep):
    """The bytes of everything an AlmReport says about a solve."""
    scalars = np.array([rep.f_value, rep.rho_final, rep.kkt_opt,
                        rep.kkt_compl, rep.kkt_feas], dtype=np.float64)
    counts = (rep.status, rep.outer_iterations, rep.inner_iterations,
              rep.krylov_precond, rep.krylov_plain, rep.ac_m, rep.ac_v)
    return [np.asarray(rep.x).tobytes(), np.asarray(rep.multipliers).tobytes(),
            scalars.tobytes(), repr(rep.history).encode(),
            repr(counts).encode()]


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
    """(label, digest) for every run of the solve grid."""
    from almprec.alm import alm_solve
    from almprec.problems import get_problem

    cfg = _grid_config(root)
    for name in cfg.problems:
        for solver in cfg.solvers:
            for mode in cfg.hessian_modes:
                for policy in cfg.policies:
                    alm_cfg = replace(cfg.alm, inner_solver=solver,
                                      hessian_mode=mode,
                                      precond_policy=policy,
                                      aux_kind=cfg.aux_kind)
                    try:
                        parts = _report_bytes(
                            alm_solve(get_problem(name), alm_cfg))
                    except Exception as exc:
                        parts = [repr(exc).encode()]
                    yield ("grid %s %s %s %s" % (name, solver, mode, policy),
                           _digest(parts))


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


def workload_runs():
    """(label, digest) for every perfbench workload and seed."""
    from perfbench.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            outcome = workload.solve(workload.setup(seed))
            parts = [repr((outcome.status, outcome.counts)).encode()]
            if isinstance(outcome.payload, list):
                parts += [np.asarray(v).tobytes() for v in outcome.payload]
            else:
                parts += _report_bytes(outcome.payload)
            yield "workload %s %d" % (name, seed), _digest(parts)


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
