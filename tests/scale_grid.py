"""
The 20 solves at n = 1024 that tests/data/scale_grid.csv pins.

    python tests/scale_grid.py [CHECKOUT] > tests/data/scale_grid.csv
    python tests/scale_grid.py --against PARENT [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is a source tree
with `src/almprec` and `perfbench`; both are imported from it, and
nothing in perfbench is changed.  The runs are the perfbench generators'
`poisson_eq_qp` and `obstacle_problem` on a k = 32 grid at seed 3, each
under truncated Newton and PSPG x NW and QN x incomplete Cholesky and
`exact`, plus SPG x NW and QN, with every other AlmConfig value at its
default.  Unlike the grid of tests/data/solve_grid.csv (n <= 10, where
CG ends in at most n iterations), these Krylov and inner counts tell the
auxiliaries apart.  BLAS runs on one thread, as in perfbench.

With `--against PARENT`, runs the grid of PARENT and of CHECKOUT, each in
its own Python process, and prints each row that moved and the total of
each count column as `parent -> checkout`; exits 1 when a row moved.  To
compare a change with its parent:

    git archive HEAD~1 | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python tests/scale_grid.py --against /tmp/parent

pytest does not collect this file; tests/test_alm.py imports it.
"""

import argparse
import csv
import os
import subprocess
import sys
from pathlib import Path

GRID = 32
SEED = 3
KEYS = ("problem", "solver", "mode", "aux")
COUNTS = ("status", "ItL", "Itin", "Itpd", "Itd", "AcM", "AcV")
# (inner solver, auxiliary kinds); SPG takes no preconditioner, so it
# runs once per mode, on the default kind.
SOLVERS = (("truncated-newton", ("incomplete-cholesky", "exact")),
           ("pspg", ("incomplete-cholesky", "exact")),
           ("spg", ("incomplete-cholesky",)))


def _problems():
    """(label, problem, check) per generator; check(report) is the
    generator's own error measure of a solve."""
    from perfbench import generators as gen

    eq, x_ref = gen.poisson_eq_qp(SEED, GRID)
    obstacle = gen.obstacle_problem(SEED, GRID)
    return (("eq-qp", eq, lambda rep: gen.eq_qp_error(x_ref, rep.x)),
            ("obstacle", obstacle,
             lambda rep: gen.kkt_error(obstacle, rep.x, rep.multipliers)))


def runs():
    """(row, check value) for each of the 20 solves: the row holds KEYS
    and COUNTS as strings, as the fixture's CSV reads them."""
    from almprec.alm import HESSIAN_MODES, AlmConfig, alm_solve

    for label, problem, check in _problems():
        for solver, kinds in SOLVERS:
            for mode in HESSIAN_MODES:
                for kind in kinds:
                    rep = alm_solve(problem, AlmConfig(
                        inner_solver=solver, hessian_mode=mode,
                        aux_kind=kind))
                    values = (label, solver, mode, kind, rep.status,
                              rep.outer_iterations, rep.inner_iterations,
                              rep.krylov_precond, rep.krylov_plain,
                              rep.ac_m, rep.ac_v)
                    yield (dict(zip(KEYS + COUNTS, map(str, values))),
                           check(rep))


def _rows(root):
    """The grid of `root` as CSV rows, from a fresh interpreter."""
    run = subprocess.run([sys.executable, __file__, str(root)],
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(2)
    return list(csv.DictReader(run.stdout.splitlines()))


def against(parent, root):
    """Print the rows that differ between `parent` and `root` and both
    trees' column totals; 1 if a row moved."""
    old, new = _rows(parent), _rows(root)
    moved = 0
    for was, now in zip(old, new):
        if was != now:
            moved += 1
            print("%s: %s -> %s" % (",".join(was[k] for k in KEYS),
                                    ",".join(was[k] for k in COUNTS),
                                    ",".join(now[k] for k in COUNTS)))
    print("%d of %d rows moved" % (moved, len(new)))
    print("totals (parent -> checkout):")
    for col in COUNTS[1:]:
        print("  %-4s %d -> %d" % (col, sum(int(row[col]) for row in old),
                                   sum(int(row[col]) for row in new)))
    return 1 if moved else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="The 20 solves of tests/data/scale_grid.csv.")
    parser.add_argument("checkout", nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--against", metavar="PARENT",
                        help="print the rows that moved from PARENT's")
    args = parser.parse_args(argv)
    root = Path(args.checkout).resolve()
    if args.against is not None:
        return against(Path(args.against).resolve(), root)
    # Before numpy is first imported, by runs().
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root)]
    out = csv.DictWriter(sys.stdout, KEYS + COUNTS, lineterminator="\n")
    out.writeheader()
    for row, _ in runs():
        out.writerow(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
