"""
The 20 solves at n = 1024 that tests/data/scale_grid.csv pins.

    python tests/scale_grid.py [CHECKOUT] > tests/data/scale_grid.csv

CHECKOUT (default: the checkout holding this script) is a source tree
with `src/almprec` and `perfbench`; both are imported from it, and
nothing in perfbench is changed.  The runs are the perfbench generators'
`poisson_eq_qp` and `obstacle_problem` on a k = 32 grid at seed 3, each
under truncated Newton and PSPG x NW and QN x incomplete Cholesky and
`exact`, plus SPG x NW and QN, with every other AlmConfig value at its
default.  Unlike the grid of tests/data/solve_grid.csv (n <= 10, where
CG ends in at most n iterations), these Krylov and inner counts tell the
auxiliaries apart.  BLAS runs on one thread, as in perfbench.

pytest does not collect this file; tests/test_alm.py imports it.
"""

import csv
import os
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


def main(argv):
    # Before numpy is first imported, by runs().
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(argv[0] if argv else Path(__file__).parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    out = csv.DictWriter(sys.stdout, KEYS + COUNTS, lineterminator="\n")
    out.writeheader()
    for row, _ in runs():
        out.writerow(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
