"""
Measurement loop, metrics and output for one benchmark run.

A run sets the workload up several times (setup_s is the import time plus
the median set-up), then repeats the timed solve for the requested
seconds, then makes one more solve under tracemalloc for peak_mem_mb.
Every solve is checked; a solve that raises, ends unconverged or fails
its check counts as failed and stays in the samples.  The traced
run alternates untraced and traced solves, requires equal iteration and
refresh counts from both, and reports the per-layer metrics from the
traced ones.
"""

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
import scipy.linalg

from . import tracing
from .workloads import WORKLOADS, solve_linsys

SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
RESULTS_DIR = Path(__file__).resolve().parent / "results"

# End-to-end metrics carried in the final JSON line.  krylov_iters is 0
# on alm-obstacle-pspg and fail_share is 0 on a healthy run, so neither
# can take a relative bound: krylov_iters is the per-layer krylov.iters,
# and fail_share is `failed / attempted` of the same line.  peak_mem_mb is
# what one solve allocates, not the process's resident set, which the
# interpreter, the libraries and the benchmark's own arrays dominate.
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "solve_s_tail": "s",
             "inner_iters": "count", "outer_iters": "count",
             "peak_mem_mb": "MB"}
COUNT_KEYS = ("krylov_iters", "inner_iters", "outer_iters", "ac_m", "ac_v")


@dataclass
class Sample:
    """One solve: wall seconds, its counts (None if it raised), whether it
    passed, its status and its check error."""
    seconds: float
    counts: Optional[dict]
    ok: bool
    status: str
    error: float


class HostSpeed:
    """
    A fixed reference computation outside almprec, timed after every
    solve: a dense Cholesky factorization, triangular solves with a
    factor too large for the L2 cache, small vector operations and an
    interpreter loop.  On a shared host the speed of both this kernel and
    almprec drifts by 20% or more over tens of seconds, largely in step;
    scaling measured times by REFERENCE_S over the kernel's time cancels
    most of that drift.  The host's contention comes in bursts that last
    longer than a solve, so each timed solve is scaled by `local_factors`,
    from the kernel times next to it; set-up is scaled by `factor`, from
    the kernel's median over the run.  The kernel runs once
    untimed before each timed run, so its data is in cache whatever the
    solve before it touched, and a change to almprec's memory traffic
    does not move the kernel.
    """

    # A fixed constant close to the kernel's median on the host the
    # benchmark was built on (Intel Xeon, 2 cores, OpenBLAS 0.3.31 on one
    # thread, Python 3.11, numpy 2.4) when that host is fast.  Only
    # ratios between runs matter.
    REFERENCE_S = 3.7e-3
    # local_factors takes the median of this many kernel times on each
    # side of a solve's own.
    LOCAL_WINDOW = 2

    def __init__(self):
        rng = np.random.default_rng(12345)
        small = rng.standard_normal((256, 256))
        large = rng.standard_normal((600, 600))
        self._a = small @ small.T + 256.0 * np.eye(256)
        self._low = np.linalg.cholesky(large @ large.T + 600.0 * np.eye(600))
        self._b = rng.standard_normal(600)
        self.times = []

    def measure(self):
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        self.times.append(time.perf_counter() - start)

    def _kernel(self):
        np.linalg.cholesky(self._a)
        x = self._b
        for _ in range(8):
            x = scipy.linalg.solve_triangular(self._low, x, lower=True)
            x = x / np.linalg.norm(x) + 0.5 * self._b
        acc = 0
        for i in range(20000):
            acc += i & 7

    def factor(self):
        return self.REFERENCE_S / statistics.median(self.times)

    def local_factors(self):
        """One factor per measurement: REFERENCE_S over the median of the
        kernel times from LOCAL_WINDOW before to LOCAL_WINDOW after it."""
        w = self.LOCAL_WINDOW
        return [self.REFERENCE_S
                / statistics.median(self.times[max(0, i - w):i + w + 1])
                for i in range(len(self.times))]


class Runner:
    """Runs and checks solves of one workload, keeping every sample; the
    timed repeats also time the host-speed kernel after each solve."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = []
        self.speed = HostSpeed()
        self._tracebacks = 0

    def solve_once(self, inputs, scope=None):
        """One checked solve, run inside the context manager `scope` (a
        tracer's solve span, or allocation tracking) if given."""
        wl = self.workload
        start = time.perf_counter()
        try:
            with scope or contextlib.nullcontext():
                outcome = wl.solve(inputs)
        except Exception:  # a failed solve is a sample, not the end of the run
            sample = Sample(time.perf_counter() - start, None, False,
                            "raised", float("inf"))
            if self._tracebacks < 3:
                traceback.print_exc(file=sys.stderr)
                self._tracebacks += 1
        else:
            seconds = time.perf_counter() - start
            error = float(wl.check(inputs, outcome))
            ok = outcome.status == "converged" and error <= wl.check_max
            sample = Sample(seconds, outcome.counts, ok, outcome.status,
                            error)
        self.samples.append(sample)
        return sample

    def repeat(self, inputs, seconds):
        """Solve until `seconds` have passed (at least once), timing the
        host-speed kernel after each solve; returns the new samples."""
        first = len(self.samples)
        deadline = time.perf_counter() + seconds
        while len(self.samples) == first or time.perf_counter() < deadline:
            self.solve_once(inputs)
            self.speed.measure()
        return self.samples[first:]

    def peak_alloc_mb(self, inputs):
        """Peak memory, in MB, allocated during one solve beyond what was
        allocated when it started (tracemalloc; numpy and scipy report
        their array buffers to it).  The solve is checked like any other
        but not timed."""
        peak = []
        self.solve_once(inputs, scope=_allocation_peak(peak))
        return peak[0] / 2.0 ** 20


@contextlib.contextmanager
def _allocation_peak(out):
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        yield
    finally:
        out.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()


def tail(values):
    """(value at TAIL_PERCENTILE, samples strictly beyond it)."""
    value = float(np.percentile(values, TAIL_PERCENTILE))
    return value, int(sum(v > value for v in values))


def count_tuple(sample):
    if sample.counts is None:
        return None
    return tuple(sample.counts[k] for k in COUNT_KEYS)


def end_to_end(samples, setup_wall_s, speed, peak_mem_mb):
    """End-to-end metrics; times are scaled to the reference host speed,
    and the unscaled wall times are kept under `*_wall_*`.  `samples` are
    the timed solves, one per kernel time in `speed`."""
    times = [s.seconds for s in samples]
    scaled = [t * f for t, f in zip(times, speed.local_factors())]
    counted = [s.counts for s in samples if s.counts is not None] or [
        dict.fromkeys(COUNT_KEYS, 0)]
    tail_s, beyond = tail(scaled)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    factor = speed.factor()
    metrics = {
        "setup_s": setup_wall_s * factor,
        "solve_s": float(statistics.median(scaled)),
        "solve_s_tail": tail_s,
        "setup_wall_s": setup_wall_s,
        "solve_wall_s": float(statistics.median(times)),
        "solve_wall_s_tail": tail(times)[0],
        "host_speed": factor,
        "krylov_iters": statistics.median(c["krylov_iters"] for c in counted),
        "inner_iters": statistics.median(c["inner_iters"] for c in counted),
        "outer_iters": statistics.median(c["outer_iters"] for c in counted),
        "fail_share": sum(not s.ok for s in samples) / len(samples),
        "peak_mem_mb": peak_mem_mb,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, beyond


def host_info(seed):
    """CPU, core count, interpreter and library versions, the BLAS build
    and its thread count, and the workload seed."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by numpy's OpenBLAS, else the pinned
    environment value."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None


def run(workload_name, seed, seconds, trace, import_s):
    """Run one workload; prints the report and returns the final JSON
    object."""
    wl = WORKLOADS[workload_name]
    runner = Runner(wl)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(seed)
        runner.solve_once(inputs)  # warm-up, checked like any other solve
        setup_times.append(time.perf_counter() - start)
    setup_wall_s = import_s + statistics.median(setup_times)

    RESULTS_DIR.mkdir(exist_ok=True)
    report = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host_info(seed), "import_s": import_s}
    if not trace:
        samples = runner.repeat(inputs, seconds)
        peak_mem_mb = runner.peak_alloc_mb(inputs)
        metrics, beyond = end_to_end(samples, setup_wall_s, runner.speed,
                                     peak_mem_mb)
        units = {**E2E_UNITS, "krylov_iters": "count", "fail_share": "ratio",
                 "setup_wall_s": "s", "solve_wall_s": "s",
                 "solve_wall_s_tail": "s", "host_speed": "ratio",
                 "peak_rss_mb": "MB"}
        rows = [(k, metrics[k], units[k], len(samples)) for k in units]
        report["tail"] = {"percentile": TAIL_PERCENTILE, "beyond": beyond}
        notes = ["solve_s_tail is p%d with %d of %d samples beyond it"
                 % (TAIL_PERCENTILE, beyond, len(samples))]
        if beyond < 10:
            notes.append("WARNING: fewer than 10 samples beyond the tail "
                         "percentile; lengthen --seconds")
        correct = True
        json_metrics = {k: metrics[k] for k in E2E_UNITS}
        json_units = E2E_UNITS
    else:
        # Untraced and traced solves alternate, so drift in the host's
        # speed during the run affects both halves alike.
        tracer = tracing.Tracer()
        traced_inputs = (replace(inputs, problem=tracer.wrap_problem(
            inputs.problem)) if hasattr(inputs, "problem") else inputs)
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            plain.append(runner.solve_once(inputs))
            tracer.install()
            try:
                traced.append(runner.solve_once(
                    traced_inputs, tracer.solve(len(traced))))
            finally:
                tracer.uninstall()
        metrics, correct, notes = _per_layer(wl, inputs, plain, traced,
                                             tracer)
        rows = [(k, metrics[k], tracing.PER_LAYER_UNITS[k], len(traced))
                for k in tracing.PER_LAYER_UNITS]
        report["missing"] = tracer.missing
        json_metrics, json_units = metrics, tracing.PER_LAYER_UNITS
        tracer.write(RESULTS_DIR / ("%s-seed%d.spans.jsonl.gz"
                                    % (wl.name, seed)))

    attempted = len(runner.samples)
    failed = sum(not s.ok for s in runner.samples)
    correct = correct and failed == 0
    for s in runner.samples:
        if not s.ok:
            notes.append("FAILED solve: status %s, check error %.3g "
                         "(limit %.1g)" % (s.status, s.error, wl.check_max))
            break

    for name, value, unit, n in rows:
        print("%-34s %-14.6g %-6s n=%d" % (name, value, unit, n))
    for note in notes:
        print(note)
    print("host: %s" % json.dumps(report["host"]))

    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": json_units[k]}
                          for k, v in json_metrics.items()}}
    report.update(result)
    with open(RESULTS_DIR / ("%s-seed%d-trace%d.json"
                             % (wl.name, seed, trace)), "w") as fh:
        json.dump(report, fh, indent=1)
    return result


def _per_layer(wl, inputs, plain, traced, tracer):
    notes = []
    plain_counts = {count_tuple(s) for s in plain}
    traced_counts = {count_tuple(s) for s in traced}
    correct = plain_counts == traced_counts
    if not correct:
        notes.append("FAILED: traced counts %s differ from untraced %s "
                     "(%s)" % (sorted(traced_counts, key=str),
                               sorted(plain_counts, key=str),
                               ", ".join(COUNT_KEYS)))
    if tracer.missing:
        notes.append("missing (not traced): %s" % ", ".join(tracer.missing))

    groups = tracing.spans_by_solve(tracer.spans)
    metrics = tracing.median_metrics(
        [tracing.layer_metrics(groups[i]) for i in sorted(groups)])
    shares = [tracing.layer_shares(groups[i]) for i in sorted(groups)]
    layers = sorted({layer for share in shares for layer in share})
    notes.append("self-time share by layer (median over traced solves): "
                 + ", ".join("%s %.3f" % (layer, statistics.median(
                     share.get(layer, 0.0) for share in shares))
                             for layer in layers))
    metrics["trace.overhead"] = (
        statistics.median(s.seconds for s in traced)
        / statistics.median(s.seconds for s in plain))
    metrics["krylov.iters_vs_plain_cg"] = 0.0
    if wl.solve is solve_linsys:
        cg = solve_linsys(inputs, cg_plain=True).counts["krylov_iters"]
        metrics["krylov.iters_vs_plain_cg"] = metrics["krylov.iters"] / cg
    return metrics, correct, notes

