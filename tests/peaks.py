"""
Peak memory of one solve of each perfbench workload, and where in the
refresh it is reached.

    python tests/peaks.py [--seed SEED] [--repeat K] [CHECKOUT]
    python tests/peaks.py --against PARENT [--seed SEED] [--repeat K]
                          [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is a source tree
with `src/almprec` and `perfbench`; both are imported from it, and
nothing in perfbench is changed.  Each workload is set up at SEED
(default 3) and solved once untimed, so the caches a repeated solve
finds are built.  Then one more solve runs under tracemalloc, as
perfbench measures `peak_mem_mb`: the peak above what was allocated when
the solve started, in MB of 2**20 bytes.  With `--repeat K` (default 1)
this is done K times per workload, each from a fresh setup, and every
figure is its minimum over the K solves, `peak in` that of the solve
with the lowest peak: one tree's peaks wander by up to about 2 KB from
solve to solve, and the minimum steadies them.

Inside that solve each refresh layer is wrapped where its callers look it
up: `hessian_model`, `build_column_set` (inside `hessian_model`),
`build_aux`, the IC factorization's loop (`incomplete_cholesky`, inside
`build_aux`), `assemble_B`, the Krylov solve (`pcg`, `pminres`) and the
CSR build of a sparse matrix (`to_csr`, a method, which its first
product calls).  A call resets tracemalloc's peak on entry and reads it
on exit, so a layer's figure is the highest point reached while any of
its calls ran, above the same base.  `peak in` names the innermost layer
running when the solve's own peak was reached, or `solve` outside every
layer.  A layer that a workload never calls prints `-`.

With `--against PARENT`, measures PARENT and CHECKOUT, each in its own
Python process, and prints each figure as `parent -> checkout` with the
change in KB of 2**10 bytes.  A rise of more than NOISE_KB = 2 KB is
marked `RISE`: two runs of one tree at one seed differ by up to about
that much.  Exits 1 when a figure is marked `RISE`.  To compare a change
with its parent:

    git archive HEAD~1 | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python tests/peaks.py --against /tmp/parent --repeat 5

pytest does not collect this file.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402

MB = 2.0 ** 20
KB = 2.0 ** 10
NOISE_KB = 2.0  # run-to-run spread of one tree's peaks
# (layer, "module:attribute" where callers look it up; the attribute may
# be a dotted path, such as a method of a class).
LAYERS = (
    ("hessian_model", "almprec.alm:hessian_model"),
    ("build_column_set", "almprec.alm:build_column_set"),
    ("build_aux", "almprec.alm:build_aux"),
    ("build_aux", "almprec.auxprecond:build_aux"),
    ("incomplete_cholesky", "almprec.auxprecond:_incomplete_cholesky"),
    ("assemble_B", "almprec.structured:assemble_B"),
    ("krylov", "almprec.inner:pcg"),
    ("krylov", "almprec.inner:pminres"),
    ("krylov", "almprec.krylov:pcg"),
    ("to_csr", "almprec.sparse:SparseSymmetricMatrix.to_csr"),
)
NAMES = tuple(dict.fromkeys(name for name, _ in LAYERS))


class Peaks:
    """Per-layer peaks of the traced memory, and the layer in which the
    highest one was reached."""

    def __init__(self):
        self.layer = {}
        self.top = 0
        self.where = "solve"
        self._stack = []

    def fold(self):
        """Credit the peak since the last reset to every running layer,
        and to the innermost one if it is the highest yet."""
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._stack:
            frame[1] = max(frame[1], peak)
        if peak > self.top:
            self.top = peak
            self.where = self._stack[-1][0] if self._stack else "solve"

    def wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.fold()
            tracemalloc.reset_peak()
            self._stack.append([name, 0])
            try:
                return func(*args, **kwargs)
            finally:
                self.fold()
                _, peak = self._stack.pop()
                self.layer[name] = max(self.layer.get(name, 0), peak)
        return wrapper


def _install(peaks):
    """Wrap every layer that this checkout has; returns the undo list."""
    undo = []
    for name, path in LAYERS:
        module_name, _, dotted = path.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = dotted.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if hasattr(owner, attr):
            func = getattr(owner, attr)
            undo.append((owner, attr, func))
            setattr(owner, attr, peaks.wrap(name, func))
    return undo


def _traced_solve(workload, seed):
    """{"solve": MB, layer: MB or None, "peak in": layer} of one
    traced solve after a fresh setup and one untraced solve, above the
    traced memory at its start."""
    inputs = workload.setup(seed)
    workload.solve(inputs)
    peaks = Peaks()
    undo = _install(peaks)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workload.solve(inputs)
        peaks.fold()
    finally:
        tracemalloc.stop()
        for owner, attr, func in reversed(undo):
            setattr(owner, attr, func)
    row = {"solve": (peaks.top - base) / MB}
    for layer in NAMES:
        got = peaks.layer.get(layer)
        row[layer] = None if got is None else (got - base) / MB
    row["peak in"] = peaks.where
    return row


def measure(root, seed, repeat=1):
    """{workload: {"solve": MB, layer: MB or None, "peak in": layer}},
    each figure the minimum over `repeat` traced solves."""
    sys.path[:0] = [str(root / "src"), str(root)]
    import almprec
    if not Path(almprec.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit("almprec imported from %s, not from %s"
                         % (almprec.__file__, root / "src"))
    from perfbench.workloads import WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        runs = [_traced_solve(workload, seed) for _ in range(repeat)]
        row = min(runs, key=lambda run: run["solve"])
        for layer in NAMES:
            got = [run[layer] for run in runs if run[layer] is not None]
            row[layer] = min(got) if got else None
        out[name] = row
    return out


def _mb(value):
    return "-" if value is None else "%.4f MB" % value


def _delta(old, new):
    """The change from `old` to `new` MB in KB, marked when it rises past
    the noise; empty when either is missing."""
    if old is None or new is None:
        return ""
    kb = (new - old) * MB / KB
    return "  (%+.1f KB)%s" % (kb, " RISE" if kb > NOISE_KB else "")


def print_table(rows, against=None):
    """One block per workload, one line per figure; with `against`, each
    line reads `parent -> checkout (change)`.  Returns the number of
    figures marked `RISE`."""
    rises = 0
    for name, row in rows.items():
        print(name)
        for col in ("solve", *NAMES, "peak in"):
            fmt = str if col == "peak in" else _mb
            cell = fmt(row[col])
            if against is not None:
                old = against[name].get(col)
                cell = "%s -> %s" % (fmt(old), cell)
                if col != "peak in":
                    cell += _delta(old, row[col])
                    rises += cell.endswith("RISE")
            print("  %-19s %s" % (col, cell))
    return rises


def _child(root, seed, repeat):
    """measure() of `root` in a fresh interpreter."""
    run = subprocess.run([sys.executable, __file__, "--json", "--seed",
                          str(seed), "--repeat", str(repeat), str(root)],
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(2)
    return json.loads(run.stdout)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Peak memory of each perfbench workload, per layer.")
    parser.add_argument("checkout", nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="report each figure's minimum over K solves")
    parser.add_argument("--against", metavar="PARENT",
                        help="print PARENT's figures beside CHECKOUT's")
    parser.add_argument("--json", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    root = Path(args.checkout).resolve()
    if args.json:
        print(json.dumps(measure(root, args.seed, args.repeat)))
    elif args.against is not None:
        old = _child(Path(args.against).resolve(), args.seed, args.repeat)
        new = _child(root, args.seed, args.repeat)
        return 1 if print_table(new, against=old) else 0
    else:
        print_table(measure(root, args.seed, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
