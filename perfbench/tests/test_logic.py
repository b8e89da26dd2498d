"""Tests of the benchmark's own logic (not of tmpnn).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import tempfile
import types
from collections import Counter

import pytest

from perfbench import run, stats, tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9_999, 99.0), (10_000, 99.9), (100_000, 99.99),
    (1_000_000, 99.999), (50_000_000, 99.999),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def _spans(rows):
    out = []
    for name, start, end, parent, *attrs in rows:
        s = tracer.Span(name, start, parent)
        s.end = end
        s.attrs = attrs[0] if attrs else None
        out.append(s)
    return out


def test_self_time_nested_children():
    # a [0, 10] > b [1, 5] > c [2, 3]: only direct children are subtracted
    spans = _spans([("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 2.0, 3.0, 1)])
    assert tracer.self_times(spans) == pytest.approx([6.0, 3.0, 1.0])


def test_self_time_back_to_back_children():
    spans = _spans([("a", 0.0, 10.0, -1), ("b", 2.0, 4.0, 0), ("c", 4.0, 7.0, 0)])
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = _spans([("a", 0.0, 10.0, -1), ("b", 2.0, 6.0, 0), ("c", 4.0, 12.0, 0)])
    assert tracer.self_times(spans)[0] == pytest.approx(2.0)


def test_time_to_r2_from_synthetic_valid_losses():
    variance = 4.0
    # R^2 = 1 - mse / 4: -9, 0, 0.975, 0.9925, 0.9875
    losses = [40.0, 4.0, 0.1, 0.03, 0.05]
    assert stats.epochs_to_r2(losses, variance) == 4
    assert stats.time_to_r2(10.0, losses, variance) == pytest.approx(8.0)
    assert stats.time_to_r2(10.0, losses[:3], variance) is None


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def _fake_module(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_tracer_records_parents_and_restores(monkeypatch):
    mod = _fake_module(monkeypatch)
    inner, outer = mod.inner, mod.outer
    with tracer.Tracer([("fake_layers", "inner", "inner"),
                        ("fake_layers", "outer", "outer")]) as tr:
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.outer is outer
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", -1), ("inner", 0)]
    assert tr.calls == {"fake_layers.inner": 1, "fake_layers.outer": 1}


def test_missing_target_fails_loudly_and_restores(monkeypatch):
    mod = _fake_module(monkeypatch)
    inner = mod.inner
    tr = tracer.Tracer([("fake_layers", "inner", "inner"),
                        ("fake_layers", "renamed", "x")])
    with pytest.raises(tracer.TraceError, match="fake_layers.renamed"):
        tr.install()
    assert mod.inner is inner


def test_target_that_never_ran_fails_loudly():
    calls = Counter({t: 1 for t in tracer.EXPECTED["verify"]})
    tracer.check_expected(calls, "verify")
    calls["tmpnn.odeview.eval_monomials_batch"] = 0
    with pytest.raises(tracer.TraceError, match="odeview.eval_monomials_batch"):
        tracer.check_expected(calls, "verify")


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert ([(m["name"], m["unit"]) for m in bench["per_layer"]]
            == list(tracer.LAYER_METRICS))
    assert [w["name"] for w in bench["workloads"]] == list(tracer.EXPECTED)
    assert list(run.WORKLOADS) == list(tracer.EXPECTED)
    wrapped = {f"{module}.{attr}" for module, attr, _ in tracer.TARGETS}
    for targets in tracer.EXPECTED.values():
        assert set(targets) <= wrapped


def test_gemm_flops_charge_backward_only_to_steps_that_reach_adamax():
    # one fit with p=2: a batch that diverges in its second forward step, a
    # batch whose backward pass overflows, then a batch that reaches Adamax,
    # then the epoch's validation predict
    basis = {"rows": 10, "size": 3, "dim": 2, "jac": 4}
    forward = 2 * 10 * 3 * 2
    backward = 4 * 10 * 3 * 2 + 2 * 10 * 4
    fit = {"diverged_steps": 2, "epochs": 1, "steps": 2}
    spans = _spans([
        ("model.fit", 0.0, 20.0, -1, fit),
        ("basis.eval", 1.0, 2.0, 0, basis),
        ("basis.eval", 2.0, 3.0, 0, basis),
        ("basis.eval", 4.0, 5.0, 0, basis),
        ("basis.eval", 5.0, 6.0, 0, basis),
        ("basis.eval", 7.0, 8.0, 0, basis),
        ("basis.eval", 8.0, 9.0, 0, basis),
        ("optim.adamax", 9.0, 10.0, 0),
        ("model.predict", 11.0, 13.0, 0, {"rows": 10}),
        ("basis.eval", 11.0, 12.0, 8, basis),
        ("basis.eval", 12.0, 13.0, 8, basis),
    ])
    m = tracer.layer_metrics(spans, 0.0, 0.0)
    assert m["model.optimizer_steps"] == 1
    assert m["model.gemm_flops"] == 8 * forward + 2 * backward


def test_traced_checks_record_no_spans():
    """verify's RK4 recheck runs after the tracer is removed: every RK4
    field evaluation traced belongs to the measured probes."""
    from perfbench import workloads

    ctx = workloads.Context(root=ROOT, src=os.path.join(ROOT, "src"),
                            work="", seed=1, seconds=0.0, fixed=True)
    with tempfile.TemporaryDirectory() as work:
        ctx.work = work
        outcome, tr = run._traced_pass(workloads, tracer, "verify", ctx)
    m = tracer.layer_metrics(tr.spans, 0.0, 0.0)
    probes = workloads.TRACED_ROUNDS * workloads.PROBES_PER_ROUND
    assert [name for name, _, _ in outcome.checks] == [
        "euler_first_order", "rk4_converged"]
    assert all(ok for _, ok, _ in outcome.checks)
    assert m["odeview.integrate_reference.calls"] == probes
    assert m["odeview.field_evals"] == probes * 4 * workloads.RK4_STEPS
