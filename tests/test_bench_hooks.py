"""The benchmark's traced run replaces tmpnn functions at the module
attributes their callers look up.  Installing its tracer fails when one of
those attributes is gone, so this keeps a rename or deletion in the library
from silently breaking the per-layer measurements.  Each workload also runs
once on its short fixed schedule, so a library change that breaks a name
or a result the benchmark relies on fails here, not in a benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

import tmpnn.model
from tmpnn import TmpnnModel, TrainConfig, gen_friedman1

# perfbench lives next to src/, outside the installed package
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.tracer import Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Context  # noqa: E402


def test_fit_predict_forward_run_through_the_traced_hooks():
    data = gen_friedman1(64, seed=0)
    model = TmpnnModel.create(5, 1, order=2, steps=2)
    with Tracer() as tracer:
        tmpnn.model.fit(model, data, config=TrainConfig(epochs=1, batch_size=32))
        pred = tmpnn.model.predict(model, data.X)
        single, _ = tmpnn.model.forward(model, data.X[0])
    np.testing.assert_allclose(pred[0], single, rtol=1e-13)
    for target in ("tmpnn.model.fit", "tmpnn.model.predict",
                   "tmpnn.model.forward", "tmpnn.model.eval_monomials_batch",
                   "tmpnn.model.adamax_step"):
        assert tracer.calls[target] > 0, target
    metrics = layer_metrics(tracer.spans, 0.0, 0.0)
    assert metrics["model.optimizer_steps"] == 2
    assert metrics["basis.eval.rows"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_its_checks_on_the_fixed_schedule(name, tmp_path):
    ctx = Context(root=str(ROOT), src=str(ROOT / "src"), work=str(tmp_path),
                  seed=1, seconds=1.0, fixed=True)
    outcome = WORKLOADS[name](ctx)
    outcome.run_checks()
    assert outcome.checks
    assert [c for c in outcome.checks if not c[1]] == []
    assert outcome.attempted > 0 and outcome.failed == 0
