"""
Observe-only tracing for the benchmark's traced run.

`Tracer.install` replaces public almprec names, at the module or class
where their callers look them up, with wrappers that record one span per
call: name, start, end, parent span, solve id, and a few counts read from
the call's arguments or result.  Nothing is changed in what the wrapped
call receives or returns.  A name that no longer exists is reported as
missing instead of failing the run.  `layer_metrics` turns the spans of
one solve into the per-layer metrics.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "attrs")

    def __init__(self, name, start, parent, solve):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.solve = solve
        self.attrs = None

    def to_json(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "solve": self.solve,
                **(self.attrs or {})}


# ---------------------------------------------------------------------------
# What each wrapped call contributes besides its span
# ---------------------------------------------------------------------------

def _aux_built(args, kwargs, result):
    return {"nnz": int(result.nnz), "shifted": bool(result.shift > 0.0)}


def _assembled(args, kwargs, result):
    aux, cols = args[0], args[1]
    prev = kwargs.get("prev", args[2] if len(args) > 2 else None)
    prev_cols = kwargs.get("prev_cols", args[3] if len(args) > 3 else None)
    return {"columns": int(cols.m),
            "reused": common_prefix(prev, prev_cols, cols)}


def _structured_applied(args, kwargs, result):
    return {"columns": int(args[0].cols.m)}


def _krylov_report(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _tn_step(args, kwargs, result):
    return {"fallback": bool(result.fallback_gradient)}


def _spg_result(args, kwargs, result):
    return {"maxit": result.status == "max-iterations"}


def _precond_get(args, kwargs, result):
    manager = args[0]
    return {"column_drops": int(manager.column_drops),
            "aux_fallbacks": int(manager.aux_fallbacks)}


def _alm_report(args, kwargs, result):
    return {"ac_m": int(result.ac_m), "ac_v": int(result.ac_v)}


def common_prefix(prev, prev_cols, cols):
    """Leading columns of `cols` that an assembly may reuse from `prev`
    (same label, sign and values), 0 without a previous assembly."""
    if prev is None or prev_cols is None or prev_cols.n != cols.n:
        return 0
    k = 0
    while (k < min(prev_cols.m, cols.m)
           and prev_cols.labels[k] == cols.labels[k]
           and prev_cols.signs[k] == cols.signs[k]
           and np.array_equal(prev_cols.columns[:, k], cols.columns[:, k])):
        k += 1
    return k


# (span name, "module:attribute path", observer).  The same span name
# appears once per place a caller looks the name up.
TARGETS = (
    ("sparse.matvec", "almprec.sparse:SparseSymmetricMatrix.matvec", None),
    ("sparse.from_dense", "almprec.sparse:SparseSymmetricMatrix.from_dense",
     None),
    ("sparse.norm1_diff", "almprec.structured:norm1_diff", None),
    ("auxprecond.build", "almprec.alm:build_aux", _aux_built),
    ("auxprecond.build", "almprec.auxprecond:build_aux", _aux_built),
    ("auxprecond.apply", "almprec.auxprecond:AuxPrecond.apply", None),
    ("structured.assemble", "almprec.alm:assemble_B", _assembled),
    ("structured.assemble", "almprec.structured:assemble_B", _assembled),
    ("structured.apply", "almprec.structured:StructuredPrecond.apply",
     _structured_applied),
    ("krylov.pcg", "almprec.inner:pcg", _krylov_report),
    ("krylov.pcg", "almprec.krylov:pcg", _krylov_report),
    ("krylov.minres", "almprec.inner:pminres", _krylov_report),
    ("inner.tn_step", "almprec.alm:truncated_newton_step", _tn_step),
    ("inner.spg", "almprec.alm:spg_solve", _spg_result),
    ("alm.solve", "almprec.alm:alm_solve", _alm_report),
    ("alm.hessian_model", "almprec.alm:hessian_model", None),
    ("alm.precond_get", "almprec.alm:PrecondManager.get", _precond_get),
    ("alm.merit", "almprec.alm:eval_al", None),
    ("alm.grad", "almprec.alm:eval_al_grad", None),
)

PROBLEM_CALLABLES = ("f", "grad", "hess", "cons", "jac_cols", "cons_hess")


def _resolve(path):
    """(owner, attribute) for "module:Class.attr" or "module:attr";
    None when any part is gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Span recorder; `install` / `uninstall` patch and restore the
    wrapped names."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.missing = []
        self._stack = []
        self._solve = None
        self._patched = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self._solve)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span.end = self.clock()
        self._stack.pop()

    def call(self, name, func, observe, args, kwargs):
        span = self.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            self.end(span)
        if observe is not None:
            span.attrs = observe(args, kwargs, result)
        return result

    @contextlib.contextmanager
    def solve(self, solve_id):
        """A root span for one solve; spans inside carry its id."""
        self._solve = solve_id
        span = self.begin("solve")
        try:
            yield span
        finally:
            self.end(span)
            self._solve = None

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, func, observe):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.call(name, func, observe, args, kwargs)
        return wrapper

    def install(self, targets=TARGETS):
        self.missing = []
        for name, path, observe in targets:
            found = _resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr = found
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                patched = classmethod(self._wrap(name, static.__func__,
                                                 observe))
            else:
                patched = self._wrap(name, static, observe)
            self._patched.append((owner, attr, static))
            setattr(owner, attr, patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def wrap_problem(self, problem):
        """A copy of an NlpProblem whose evaluation callables are traced
        as `problems.eval`."""
        return replace(problem, **{
            field: self._wrap("problems.eval", getattr(problem, field), None)
            for field in PROBLEM_CALLABLES})

    def write(self, path):
        """All spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_json(i)) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans are single-threaded, so children never
    overlap."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


PER_LAYER_UNITS = {
    "sparse.matvec_calls": "count", "sparse.matvec_s": "s",
    "sparse.from_dense_calls": "count", "sparse.from_dense_s": "s",
    "sparse.norm1_diff_s": "s",
    "auxprecond.build_calls": "count", "auxprecond.build_s": "s",
    "auxprecond.factor_nnz": "count", "auxprecond.shifted_builds": "count",
    "auxprecond.apply_calls": "count", "auxprecond.apply_s": "s",
    "auxprecond.fallbacks": "count",
    "structured.assemble_calls": "count", "structured.assemble_s": "s",
    "structured.prefix_reused_share": "ratio",
    "structured.apply_calls": "count", "structured.apply_s": "s",
    "structured.columns_per_apply": "count",
    "structured.column_drops": "count",
    "krylov.iters": "count",
    "krylov.pcg_calls": "count", "krylov.pcg_s": "s",
    "krylov.s_per_iteration": "s", "krylov.minres_calls": "count",
    "krylov.unconverged_share": "ratio",
    "krylov.iters_max_over_min": "ratio", "krylov.iters_vs_plain_cg": "ratio",
    "inner.tn_steps": "count", "inner.tn_step_s": "s",
    "inner.gradient_fallbacks": "count",
    "inner.spg_calls": "count", "inner.spg_s": "s",
    "inner.spg_maxit_exits": "count",
    "alm.hessian_model_calls": "count", "alm.hessian_model_s": "s",
    "alm.precond_get_calls": "count", "alm.precond_get_s": "s",
    "alm.ac_m": "count", "alm.ac_v": "count", "alm.refresh_share": "ratio",
    "alm.merit_evals": "count", "alm.merit_s": "s",
    "alm.grad_evals": "count", "alm.grad_s": "s",
    "problems.eval_calls": "count", "problems.eval_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one solve from its spans.  Every `_s` metric
    is self time summed over the layer's calls."""
    own = self_times(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    attrs = defaultdict(list)
    for span, t in zip(spans, own):
        calls[span.name] += 1
        secs[span.name] += t
        if span.attrs:
            attrs[span.name].append(span.attrs)

    def total(name, key):
        return sum(a[key] for a in attrs[name])

    krylov = attrs["krylov.pcg"] + attrs["krylov.minres"]
    iters = sum(a["iterations"] for a in krylov)
    pcg_iters = [a["iterations"] for a in attrs["krylov.pcg"]
                 if a["iterations"] > 0]
    gets = attrs["alm.precond_get"]
    ac_m = total("alm.solve", "ac_m")
    ac_v = total("alm.solve", "ac_v")
    return {
        "sparse.matvec_calls": calls["sparse.matvec"],
        "sparse.matvec_s": secs["sparse.matvec"],
        "sparse.from_dense_calls": calls["sparse.from_dense"],
        "sparse.from_dense_s": secs["sparse.from_dense"],
        "sparse.norm1_diff_s": secs["sparse.norm1_diff"],
        "auxprecond.build_calls": calls["auxprecond.build"],
        "auxprecond.build_s": secs["auxprecond.build"],
        "auxprecond.factor_nnz": _ratio(total("auxprecond.build", "nnz"),
                                        calls["auxprecond.build"]),
        "auxprecond.shifted_builds": total("auxprecond.build", "shifted"),
        "auxprecond.apply_calls": calls["auxprecond.apply"],
        "auxprecond.apply_s": secs["auxprecond.apply"],
        "auxprecond.fallbacks": max((g["aux_fallbacks"] for g in gets),
                                    default=0),
        "structured.assemble_calls": calls["structured.assemble"],
        "structured.assemble_s": secs["structured.assemble"],
        "structured.prefix_reused_share": _ratio(
            total("structured.assemble", "reused"),
            total("structured.assemble", "columns")),
        "structured.apply_calls": calls["structured.apply"],
        "structured.apply_s": secs["structured.apply"],
        "structured.columns_per_apply": _ratio(
            total("structured.apply", "columns"), calls["structured.apply"]),
        "structured.column_drops": max((g["column_drops"] for g in gets),
                                       default=0),
        "krylov.iters": iters,
        "krylov.pcg_calls": calls["krylov.pcg"],
        "krylov.pcg_s": secs["krylov.pcg"],
        "krylov.s_per_iteration": _ratio(
            secs["krylov.pcg"] + secs["krylov.minres"], iters),
        "krylov.minres_calls": calls["krylov.minres"],
        "krylov.unconverged_share": _ratio(
            sum(not a["converged"] for a in krylov), len(krylov)),
        "krylov.iters_max_over_min": _ratio(max(pcg_iters, default=0),
                                            min(pcg_iters, default=0)),
        "inner.tn_steps": calls["inner.tn_step"],
        "inner.tn_step_s": secs["inner.tn_step"],
        "inner.gradient_fallbacks": total("inner.tn_step", "fallback"),
        "inner.spg_calls": calls["inner.spg"],
        "inner.spg_s": secs["inner.spg"],
        "inner.spg_maxit_exits": total("inner.spg", "maxit"),
        "alm.hessian_model_calls": calls["alm.hessian_model"],
        "alm.hessian_model_s": secs["alm.hessian_model"],
        "alm.precond_get_calls": calls["alm.precond_get"],
        "alm.precond_get_s": secs["alm.precond_get"],
        "alm.ac_m": ac_m,
        "alm.ac_v": ac_v,
        "alm.refresh_share": _ratio(ac_m + ac_v, calls["alm.precond_get"]),
        "alm.merit_evals": calls["alm.merit"],
        "alm.merit_s": secs["alm.merit"],
        "alm.grad_evals": calls["alm.grad"],
        "alm.grad_s": secs["alm.grad"],
        "problems.eval_calls": calls["problems.eval"],
        "problems.eval_s": secs["problems.eval"],
    }


def layer_shares(spans):
    """Self time of each layer (the span name up to its first dot) over
    the solve's time, for the solve whose root span is spans[0].  The
    root's own self time, the benchmark's code around the wrapped calls,
    is `other`."""
    own = self_times(spans)
    total = spans[0].end - spans[0].start
    shares = defaultdict(float)
    for span, t in zip(spans, own):
        layer = "other" if span.parent is None else span.name.split(".")[0]
        shares[layer] += _ratio(t, total)
    return dict(shares)


def median_metrics(per_solve):
    """Median over solves of each per-solve metric."""
    return {key: float(statistics.median(m[key] for m in per_solve))
            for key in per_solve[0]}


def spans_by_solve(spans):
    """Spans grouped per solve id, each group re-indexed so that parents
    point inside the group."""
    groups = defaultdict(list)
    index = {}
    for i, span in enumerate(spans):
        if span.solve is None:
            continue
        group = groups[span.solve]
        index[i] = len(group)
        copy = Span(span.name, span.start, index.get(span.parent),
                    span.solve)
        copy.end, copy.attrs = span.end, span.attrs
        group.append(copy)
    return dict(groups)
