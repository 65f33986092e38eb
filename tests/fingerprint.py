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
- `restricted`: the Hessian model that `hessian_model(..., free=idx)`
  builds at `x0` on a fixed free set (every third variable, from the
  first, pinned) for each grid problem: NW, QN, QN with the fixed
  secant pair y = Hs + s (`QN-secant`), which BOX-QP's model reproduces
  (no constraints, so sigma = 1 absorbs the +s) and so leaves out, and
  QN with y = Hs + s + 0.1 s[::-1] (`QN-secant-kept`), which no grid
  problem's model reproduces (||y - w|| / ||y|| >= 0.019 on each), so
  every problem whose pair passes the curvature test carries it; and,
  on the problems where both pairs fail that test, s'y <= 0 (HS41 and
  HS63, whose `hess f` has s'Hs = -2.19 s's and -3.59 s's), QN with
  y = Hs + 5 s (`QN-secant-curved`), which both models carry;
- `restricted-memo`: per grid problem, with `hess f`, the Jacobian and
  the constraint Hessians frozen at `x0` as read-only constants, the
  NW, QN and `QN-secant` models built through one per-solve memo
  (`_SolveMemo`, which takes the frozen arrays as constant at the first
  model) over the free sets A, A (the same array), B, A (a new array),
  none (B another set of A's size), so the memo's cut of `hess f` is
  built, reused and replaced; and, each under its own label and memo,
  the `QN-secant-kept` model over the same free sets, and on HS41 and
  HS63 the `QN-secant-curved` one.  HS63's nonzero constraint Hessian
  enters every NW model afresh, the others' zero ones make the memo
  read the constraints as linear;
- `fallback`: each numerical fallback, forced on a small input:
  - `aux-shift KIND`: `build_aux`'s shifted build of an indefinite
    block (a 5-point Laplacian minus 4 I, whose zero diagonal is not
    stored, and minus 5 I), which both reach at the last rung, the
    Gershgorin-bound shift max(beta_G, 0) + 0.1 max(||diag M||_inf,
    max_i r_i), for each auxiliary kind but `identity`; a build that
    raises hashes its exception;
  - `aux-shift-positive-diagonal KIND`: the same on an indefinite block
    whose diagonal is positive (the 4 x 4-grid Laplacian minus 3.9 I,
    diagonal 0.1), so no rung may be skipped: `jacobi` builds on it
    unshifted, and `incomplete-cholesky` and `exact` try all three
    rungs;
  - `force-spd`: the `bench` shift that makes those two blocks, and an
    SPD one, positive definite;
  - `krylov ...`: `truncated_newton_step` on 2 x 2 models whose
    preconditioner breaks down: P^-1 = [[0, 1], [1, 0]] with the
    identity operator and b = (1, -1), where the plain CG rerun converges
    (`pcg-repro`), or with diag(1, -1) and b = (2, -1), where the rerun
    meets negative curvature on its second iteration
    (`indefinite-repro`), or b = (1, 1), where preconditioned CG meets it
    on its first (`indefinite-first`), and a NaN preconditioner on
    diag(1, 2) with b = (1, 1) (`nan-precond`); a step that raises hashes
    its exception;
- `structured`: for each auxiliary kind, on a 6 x 6 grid Laplacian,
  `assemble_B`'s whole BStore and one structured apply on three seeded
  column sets with the sign patterns [+...+], [+...+, +, -] and
  [+, -, +], so a change to the capacitance factor or to either form of
  the correction shows bitwise; and (`structured single-column KIND`)
  one apply of the rank-1 case, the set of the one column sqrt(rho) v,
  with v and r seeded and rho = 7.5;
- `workload`: the three perfbench workloads at seeds 0-3;
- `counts`: one line for the whole grid and one for each workload,
  hashing only the status and the iteration and refresh counts of the
  runs above, so that `--against` tells a change that moves results at
  rounding level (its `grid` or `workload` lines differ, its `counts`
  lines do not) from one that moves a count;
- `reuse`: one line for each workload, hashing per seed which of the
  `build_column_set` calls of its runs, counted where `alm` looks the
  name up, returned the `held` set they were passed, so that a change
  to the held-set reuse shows even where no count moves;
- `experiment`: the seeded `spectral` and `linsys` experiments at seeds
  0-2 with every auxiliary kind, Jacobi also on a diagonal `M` and
  incomplete Cholesky also with drop tolerance 0.  Jacobi on a diagonal
  `M`, IC(0) and `exact` invert `M` exactly, so their structured
  applies take the refinement step and its product with `M`.  One more
  `linsys` run (n = 40, m = 3, IC(0.1), seed 0) builds its auxiliary
  at the last, Gershgorin-bound rung of `build_aux`.

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


def _laplacian(k):
    """Dense 5-point Laplacian on a k x k grid."""
    t = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    return np.kron(t, np.eye(k)) + np.kron(np.eye(k), t)


def _matrix_bytes(m):
    """The bytes of a sparse matrix's entries.  Indices are hashed as
    int64 whatever their stored width, so the same entries give the same
    bytes in a tree that stores them narrower."""
    return [m.rows.astype(np.int64).tobytes(),
            m.cols.astype(np.int64).tobytes(), m.vals.tobytes()]


def _model_bytes(model):
    """The bytes of everything a HessianModel holds."""
    m, cols = model.m_part, model.cols
    return [repr((m.n, model.sigma, cols.n, cols.labels,
                  cols.notes)).encode(), *_matrix_bytes(m),
            cols.columns.tobytes(), cols.signs.tobytes()]


def restricted_runs(root):
    """(label, digest) of each reduced Hessian model at x0."""
    from almprec import alm
    from almprec.problems import get_problem

    for name in _grid_config(root).problems:
        p = get_problem(name)
        pinned = np.arange(p.n) % 3 == 0
        for label, mode, pair in (("NW", "NW", None), ("QN", "QN", None),
                                  *_secant_pairs(p), *_curved_pair(p)):
            try:
                parts = _model_bytes(alm.hessian_model(
                    p, p.x0, np.ones(p.m), 10.0, mode, secant=pair,
                    free=np.flatnonzero(~pinned)))
            except Exception as exc:
                parts = [repr(exc).encode()]
            yield "restricted %s %s" % (name, label), _digest(parts)


def _secant_pairs(p):
    """(label, "QN", (s, y)) of the two fixed secant pairs of `p`."""
    s = np.linspace(1.0, 2.0, p.n)
    hs = p.hess(p.x0) @ s
    return [("QN-secant", "QN", (s, hs + s)),
            ("QN-secant-kept", "QN", (s, hs + s + 0.1 * s[::-1]))]


def _curved_pair(p):
    """[("QN-secant-curved", "QN", (s, Hs + 5 s))] when the fixed pairs
    of `p` fail the curvature test s'y > 0, else []."""
    s = np.linspace(1.0, 2.0, p.n)
    hs = p.hess(p.x0) @ s
    if float(s @ (hs + s)) > 0.0:
        return []
    return [("QN-secant-curved", "QN", (s, hs + 5.0 * s))]


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
        secant, *alone = _secant_pairs(p) + _curved_pair(p)
        runs = [(name, [("NW", None), ("QN", None), secant[1:]])]
        runs += [("%s %s" % (name, label), [(mode, pair)])
                 for label, mode, pair in alone]
        for label, models in runs:
            memo, parts = alm._SolveMemo(), []
            for mode, pair in models:
                for free in (first, first, other, first.copy(), None):
                    try:
                        parts += _model_bytes(alm.hessian_model(
                            p, p.x0, np.ones(p.m), 10.0, mode, secant=pair,
                            free=free, _memo=memo))
                    except Exception as exc:
                        parts.append(repr(exc).encode())
            yield "restricted-memo %s" % label, _digest(parts)


def fallback_runs():
    """(label, digest) of each forced numerical fallback."""
    from almprec import bench, inner
    from almprec.auxprecond import KINDS, build_aux
    from almprec.sparse import SparseSymmetricMatrix

    blocks = [SparseSymmetricMatrix.from_dense(_laplacian(8)
                                               - shift * np.eye(64))
              for shift in (4, 5)]
    positive = SparseSymmetricMatrix.from_dense(_laplacian(4)
                                                - 3.9 * np.eye(16))
    for label, ms in (("aux-shift", blocks),
                      ("aux-shift-positive-diagonal", [positive])):
        for kind in KINDS:
            if kind == "identity":
                continue
            parts = []
            for m in ms:
                try:
                    aux = build_aux(m, kind, 1e-2)
                    parts += [repr((aux.kind, float(aux.shift),
                                    aux.nnz)).encode(),
                              aux.apply(np.linspace(1.0, 2.0, m.n)).tobytes()]
                except Exception as exc:
                    parts.append(repr(exc).encode())
            yield "fallback %s %s" % (label, kind), _digest(parts)

    parts = []
    for m in blocks + [SparseSymmetricMatrix.from_dense(_laplacian(8))]:
        spd, shift = bench._force_spd(m)
        parts += [repr(shift).encode(), *_matrix_bytes(spd)]
    yield "fallback force-spd", _digest(parts)

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = (("pcg-repro", np.eye(2), swap, np.array([1.0, -1.0])),
             ("indefinite-repro", np.diag([1.0, -1.0]), swap,
              np.array([2.0, -1.0])),
             ("indefinite-first", np.diag([1.0, -1.0]), swap, np.ones(2)),
             ("nan-precond", np.diag([1.0, 2.0]), np.full((2, 2), np.nan),
              np.ones(2)))
    # A checkout with inner.InnerConfig takes it as a fourth argument.
    config = ((inner.InnerConfig(),) if hasattr(inner, "InnerConfig")
              else ())
    for label, op, precond, b in cases:
        try:
            step = inner.truncated_newton_step(lambda v, a=op: a @ v, -b,
                                               lambda v, q=precond: q @ v,
                                               *config)
            parts = [repr((step.negative_curvature, step.preconditioned,
                           step.fallback_gradient, step.converged,
                           step.krylov_iterations)).encode(),
                     step.direction.tobytes()]
        except Exception as exc:
            parts = [repr(exc).encode()]
        yield "fallback krylov %s" % label, _digest(parts)


def structured_runs():
    """(label, digest) of the structured preconditioner per auxiliary
    kind: its BStore and one apply on each seeded column set, and then
    one apply on a seeded single column."""
    from almprec.auxprecond import KINDS, build_aux
    from almprec.sparse import SparseSymmetricMatrix
    from almprec.structured import ColumnSet, StructuredPrecond

    n = 36
    m = SparseSymmetricMatrix.from_dense(_laplacian(6))
    rng = np.random.default_rng(0)
    sets = []
    for signs in ([1.0] * 5, [1.0] * 6 + [-1.0], [1.0, -1.0, 1.0]):
        v = rng.standard_normal((n, len(signs)))
        v[:, np.asarray(signs) < 0] *= 0.1
        sets.append(ColumnSet(n, v, signs, range(len(signs))))
    r = rng.standard_normal(n)
    for kind in KINDS:
        aux = build_aux(m, kind, 1e-2)
        parts = []
        for cols in sets:
            sp = StructuredPrecond(aux, cols)
            bs = sp.bs
            parts += [bs.b.tobytes(), bs.denoms.tobytes(),
                      bs.weights.tobytes(), sp.apply(r).tobytes()]
        yield "structured %s" % kind, _digest(parts)
    rng = np.random.default_rng(1)
    v, r = rng.standard_normal(n), rng.standard_normal(n)
    single = ColumnSet(n, np.sqrt(7.5) * v[:, None], [1.0], [0])
    for kind in KINDS:
        sp = StructuredPrecond(build_aux(m, kind, 1e-2), single)
        yield ("structured single-column %s" % kind,
               _digest([sp.apply(r).tobytes()]))


def workload_runs():
    """(label, digest) for every perfbench workload and seed, and after
    each workload's seeds its `counts` and `reuse` lines."""
    from almprec import alm
    from perfbench.workloads import WORKLOADS

    build = alm.build_column_set
    reused = []

    def recorded(*args, held=None, **kwargs):
        cols = build(*args, held=held, **kwargs)
        reused.append(held is not None and cols is held)
        return cols

    alm.build_column_set = recorded
    try:
        for name, workload in WORKLOADS.items():
            counts, reuse = [], []
            for seed in SEEDS:
                reused.clear()
                outcome = workload.solve(workload.setup(seed))
                reuse.append(repr(reused).encode())
                parts = [repr((outcome.status, outcome.counts)).encode()]
                counts.append(parts[0])
                if isinstance(outcome.payload, list):
                    parts += [np.asarray(v).tobytes()
                              for v in outcome.payload]
                else:
                    parts += _report_bytes(outcome.payload)
                yield "workload %s %d" % (name, seed), _digest(parts)
            yield "counts workload %s" % name, _digest(counts)
            yield "reuse %s" % name, _digest(reuse)
    finally:
        alm.build_column_set = build


def _experiment_digest(cfg):
    """The digest of an experiment's CSV rows, time zeroed, or of the
    exception it raises."""
    from almprec.bench import rows_to_csv, run_experiment

    try:
        parts = [rows_to_csv(run_experiment(cfg),
                             time_column_stable=True).encode()]
    except Exception as exc:
        parts = [repr(exc).encode()]
    return _digest(parts)


def experiment_runs():
    """(label, digest) for every seeded spectral and linsys experiment."""
    from almprec.bench import ExperimentConfig

    for kind in ("spectral", "linsys"):
        for aux_kind, density, drop_tols in EXPERIMENTS:
            for seed in EXPERIMENT_SEEDS:
                cfg = ExperimentConfig(kind=kind, n=30, density=density,
                                       m=3, seed=seed,
                                       drop_tol_list=drop_tols,
                                       aux_kind=aux_kind)
                yield ("experiment %s %s %g %d"
                       % (kind, aux_kind, density, seed),
                       _experiment_digest(cfg))
    yield "experiment linsys shifted-ic n40", _experiment_digest(
        ExperimentConfig(kind="linsys", n=40, m=3, seed=0,
                         drop_tol_list=(0.1,)))


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
                          *restricted_runs(root),
                          *restricted_memo_runs(root), *fallback_runs(),
                          *structured_runs(), *workload_runs(),
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
