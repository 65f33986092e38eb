"""
Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload alm-eq-tn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; almprec is imported from its
`src/` directory, never from elsewhere.  Prints one line per metric
(name, value, unit, sample count), the host, and as its last line a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits 1 when any output check fails and 2 when almprec cannot be
imported from the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: single-threaded runs stay steady on a small shared host.
# Set before numpy is first imported, which is what makes it take effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import almprec
    except ImportError as exc:
        print("cannot import almprec from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    if not Path(almprec.__file__).resolve().is_relative_to(ROOT / "src"):
        print("almprec imported from %s, not from this checkout"
              % almprec.__file__, file=sys.stderr)
        return 2

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_s=time.perf_counter() - _START)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
