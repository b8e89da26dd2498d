"""Each benchmark workload runs its short fixed schedule as the benchmark's
traced run does (perfbench/run.py --trace 1): under perfbench's tracer,
which wraps tmpnn functions at the module attributes their callers look
up, then the calls the workload owes (perfbench/tracer.py's EXPECTED), the
per-layer figures read off its spans, and the workload's own checks.  A
rename in the library, a call a workload no longer makes, or a result the
benchmark relies on then fails here, not in a benchmark run."""

import sys
from pathlib import Path

import pytest

# perfbench lives next to src/, outside the installed package
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench import run, tracer, workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_on_the_fixed_schedule(name, tmp_path):
    ctx = workloads.Context(root=str(ROOT), src=str(ROOT / "src"),
                            work=str(tmp_path), seed=1, seconds=1.0, fixed=True)
    outcome, tr = run._traced_pass(workloads, tracer, name, ctx)
    tracer.check_expected(tr.calls, name)
    metrics = tracer.layer_metrics(tr.spans, 0.0, 0.0)
    # every workload trains a model
    assert metrics["model.optimizer_steps"] > 0
    assert metrics["basis.eval.rows"] > 0
    assert outcome.checks
    assert [c for c in outcome.checks if not c[1]] == []
    assert outcome.attempted > 0 and outcome.failed == 0
