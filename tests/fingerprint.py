"""
Bitwise fingerprint of almprec's results, for changes that must leave
them identical.

    python tests/fingerprint.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is a source tree
with `src/almprec`, `perfbench` and `tests/data/solve_grid.cfg`; almprec
and perfbench are imported from it.  Prints one SHA-256 per run and a
total over all of them:

- `grid`: the 126 runs of the `solve` grid in tests/data/solve_grid.cfg
  (every problem x inner solver x Hessian mode x refresh policy);
- `workload`: the three perfbench workloads at seeds 0-3.

An ALM run hashes the raw bytes of `x` and of the multipliers, `f`,
`rho_final`, the three KKT values, the history, the iteration and refresh
counts and the status; a run that raises hashes its exception.  The linsys
workload hashes its solutions, counts and status.  BLAS runs on one
thread, as in perfbench.  To compare a change with its parent:

    git archive HEAD~1 | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python tests/fingerprint.py /tmp/parent > parent.txt
    python tests/fingerprint.py > change.txt
    diff parent.txt change.txt && echo identical

pytest does not collect this file.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = range(4)


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


def grid_runs(root):
    """(label, digest) for every run of the solve grid."""
    from almprec.alm import alm_solve
    from almprec.cli import build_experiment_config, parse_config_text
    from almprec.problems import get_problem

    path = root / "tests" / "data" / "solve_grid.cfg"
    cfg = build_experiment_config(
        "solve", parse_config_text(path.read_text(), source=str(path)))
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


def main(argv):
    root = Path(argv[1] if len(argv) > 1
                else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import almprec
    if not Path(almprec.__file__).resolve().is_relative_to(root / "src"):
        print("almprec imported from %s, not from %s"
              % (almprec.__file__, root / "src"), file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for label, digest in (*grid_runs(root), *workload_runs()):
        print(label, digest)
        total.update(digest.encode())
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
