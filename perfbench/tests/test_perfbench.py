"""The benchmark's generators, reference checks, tracing and harness."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg

from perfbench import generators as gen
from perfbench import harness, tracing, workloads
from perfbench.workloads import WORKLOADS, AlmInputs, Outcome

SMALL = {
    "linsys-rho-sweep": lambda seed: gen.linsys_inputs(seed, 10),
    "alm-eq-tn": lambda seed: AlmInputs(*gen.poisson_eq_qp(seed, 10)),
    "alm-obstacle-pspg": lambda seed: AlmInputs(gen.obstacle_problem(seed,
                                                                     10)),
}


def _arrays(inputs):
    """Every array a generated input carries, problem evaluations at a
    fixed point included."""
    if isinstance(inputs, gen.LinsysInputs):
        return [inputs.m_csr.toarray(), inputs.m_sym.to_dense(), inputs.v,
                inputs.b]
    p = inputs.problem
    x = np.linspace(-0.5, 0.5, p.n)
    out = [p.x0, p.lower, p.upper, np.atleast_1d(p.f(x)), p.grad(x),
           p.hess(x), p.cons(x), p.jac_cols(x)]
    if inputs.x_ref is not None:
        out.append(inputs.x_ref)
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_per_seed(name):
    first, again, other = SMALL[name](3), SMALL[name](3), SMALL[name](4)
    for a, b in zip(_arrays(first), _arrays(again)):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b)
               for a, b in zip(_arrays(first), _arrays(other)))


def test_generated_matrices_are_spd_and_consistent():
    inp = gen.linsys_inputs(0, 8)
    dense = inp.m_csr.toarray()
    np.testing.assert_array_equal(dense, inp.m_sym.to_dense())
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_linsys_check_rejects_perturbed_solution():
    inp = gen.linsys_inputs(0, 10)
    exact = []
    for rho in inp.rhos:
        h = inp.m_csr + rho * scipy.sparse.csr_matrix(inp.v @ inp.v.T)
        exact.append(scipy.sparse.linalg.spsolve(h.tocsc(), inp.b))
    wl = WORKLOADS["linsys-rho-sweep"]
    assert wl.check(inp, Outcome({}, "converged", exact)) <= wl.check_max
    perturbed = [x * (1.0 + 1e-5) for x in exact]
    assert wl.check(inp, Outcome({}, "converged", perturbed)) > wl.check_max


def test_eq_qp_check_rejects_perturbed_solution():
    inputs = SMALL["alm-eq-tn"](0)
    wl = WORKLOADS["alm-eq-tn"]
    report = wl.solve(inputs).payload
    assert wl.check(inputs, Outcome({}, "converged", report)) <= wl.check_max
    report.x = report.x + 1e-4
    assert wl.check(inputs, Outcome({}, "converged", report)) > wl.check_max


def test_eq_qp_reference_satisfies_kkt():
    inputs = SMALL["alm-eq-tn"](1)
    p = inputs.problem
    assert np.max(np.abs(p.cons(inputs.x_ref))) < 1e-12
    # The gradient must lie in the range of the constraint Jacobian.
    jac = p.jac_cols(inputs.x_ref)
    lam = np.linalg.lstsq(jac, -p.grad(inputs.x_ref), rcond=None)[0]
    assert np.max(np.abs(p.grad(inputs.x_ref) + jac @ lam)) < 1e-12


def test_obstacle_check_rejects_perturbed_solution():
    inputs = SMALL["alm-obstacle-pspg"](0)
    wl = WORKLOADS["alm-obstacle-pspg"]
    outcome = wl.solve(inputs)
    assert outcome.status == "converged"
    assert wl.check(inputs, outcome) <= wl.check_max
    report = outcome.payload
    p = inputs.problem
    report.x = np.clip(report.x + 1e-3, p.lower, p.upper)
    assert wl.check(inputs, outcome) > wl.check_max


def test_obstacle_check_rejects_wrong_multipliers():
    inputs = SMALL["alm-obstacle-pspg"](0)
    wl = WORKLOADS["alm-obstacle-pspg"]
    outcome = wl.solve(inputs)
    outcome.payload.multipliers = np.zeros_like(outcome.payload.multipliers)
    assert wl.check(inputs, outcome) > wl.check_max


def test_obstacle_caps_mix_active_and_inactive():
    inputs = SMALL["alm-obstacle-pspg"](0)
    report = WORKLOADS["alm-obstacle-pspg"].solve(inputs).payload
    assert np.sum(report.multipliers > 0.0) == 2


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_on_synthetic_span_nest():
    # solve [0, 10] > structured.apply [1, 4] > auxprecond.apply [2, 3]
    #               > krylov.pcg [5, 9]
    tracer = tracing.Tracer(clock=_Clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.solve(0):
        outer = tracer.begin("structured.apply")
        inner = tracer.begin("auxprecond.apply")
        tracer.end(inner)
        tracer.end(outer)
        pcg = tracer.begin("krylov.pcg")
        tracer.end(pcg)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["structured.apply_s"] == 2.0
    assert metrics["auxprecond.apply_s"] == 1.0
    assert metrics["krylov.pcg_s"] == 4.0
    assert tracing.layer_shares(tracer.spans) == {
        "other": 0.3, "structured": 0.2, "auxprecond": 0.1, "krylov": 0.4}


def test_spans_by_solve_reindexes_parents():
    tracer = tracing.Tracer(clock=_Clock(range(100)))
    for solve_id in (0, 1):
        with tracer.solve(solve_id):
            tracer.end(tracer.begin("sparse.matvec"))
    groups = tracing.spans_by_solve(tracer.spans)
    assert sorted(groups) == [0, 1]
    for group in groups.values():
        assert [s.parent for s in group] == [None, 0]
        assert tracing.self_times(group) == [2.0, 1.0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_match_untraced(name):
    wl = WORKLOADS[name]
    inputs = SMALL[name](0)
    plain = wl.solve(inputs).counts
    originals = {path: tracing._resolve(path) for _, path, _ in
                 tracing.TARGETS}
    tracer = tracing.Tracer()
    if isinstance(inputs, AlmInputs):
        inputs = AlmInputs(tracer.wrap_problem(inputs.problem), inputs.x_ref)
    tracer.install()
    try:
        with tracer.solve(0):
            traced = wl.solve(inputs).counts
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.missing == []
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["krylov.iters"] == plain["krylov_iters"]
    if isinstance(inputs, AlmInputs):
        assert metrics["alm.ac_m"] == plain["ac_m"]
        assert metrics["alm.ac_v"] == plain["ac_v"]
        assert metrics["problems.eval_calls"] > 0
    # uninstall restores every patched name
    for path, (owner, attr) in originals.items():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), path


def test_missing_name_is_reported_not_fatal():
    tracer = tracing.Tracer()
    tracer.install((
        ("structured.apply", "almprec.structured:no_such_function", None),
        ("structured.apply", "almprec.no_such_module:apply", None),
        ("alm.precond_get", "almprec.alm:NoSuchClass.get", None),
    ))
    tracer.uninstall()
    assert len(tracer.missing) == 3


def test_tracing_leaves_results_unchanged():
    inputs = SMALL["alm-eq-tn"](2)
    wl = WORKLOADS["alm-eq-tn"]
    plain = wl.solve(inputs).payload
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.solve(AlmInputs(tracer.wrap_problem(inputs.problem),
                                    inputs.x_ref)).payload
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(plain.x, traced.x)
    np.testing.assert_array_equal(plain.multipliers, traced.multipliers)


def test_peak_alloc_counts_what_the_solve_allocates():
    def solve(inputs):
        buffer = np.ones(2 ** 20)  # 8 MiB, freed before the solve returns
        return Outcome({}, "converged", float(buffer.sum()))
    wl = workloads.Workload("alloc", None, solve, lambda i, o: 0.0, 0.0)
    runner = harness.Runner(wl)
    kept = np.ones(2 ** 21)  # allocated before the solve: not counted
    assert 8.0 <= runner.peak_alloc_mb(kept) < 8.5
    assert runner.samples[-1].ok


def test_local_factors_follow_nearby_kernel_times():
    speed = harness.HostSpeed()
    ref = harness.HostSpeed.REFERENCE_S
    speed.times = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert [ref / f for f in speed.local_factors()] == [
        1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert speed.factor() == ref / 2.0


def test_tail_counts_samples_beyond():
    values = list(range(1, 101))
    value, beyond = harness.tail(values)
    assert value == pytest.approx(90.1)
    assert beyond == 10


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_contract_line(trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "EQ_GRID", 8)
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    result = harness.run("alm-eq-tn", 5, 0.2, trace, import_s=0.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = (tracing.PER_LAYER_UNITS if trace else harness.E2E_UNITS)
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
    saved = json.loads((tmp_path / ("alm-eq-tn-seed5-trace%d.json"
                                    % trace)).read_text())
    assert saved["host"]["seed"] == 5 and saved["host"]["nproc"] >= 1
    out = capsys.readouterr().out
    assert "host:" in out
