"""Property tests of the exact round trips over random model shapes:
JSON save/load, ODE extract/rebuild, and raise-order at step doublings."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tmpnn import (Scaler, TmpnnModel, extract_ode, load_model, predict,
                   raise_order, rebuild_map, save_model)

# (n, m, l, k, p) with the weights, init state and scaler drawn from a seed
shapes = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
                   st.integers(1, 3), st.integers(1, 6),
                   st.integers(0, 2 ** 32 - 1))

bounded = settings(max_examples=40, deadline=None)


def random_model(n, m, l, k, p, seed):
    rng = np.random.default_rng(seed)
    model = TmpnnModel.create(n, m, n_latent=l, order=k, steps=p,
                              init_trainable=bool(rng.integers(0, 2)),
                              reg_l2=float(rng.choice([0.0, 1e-4])))
    model.map.delta = rng.normal(0.0, 0.1, model.map.delta.shape)
    model.init_state = rng.normal(0.0, 0.3, model.init_state.shape)
    model.scaler = Scaler(mean=rng.normal(size=n),
                          scale=rng.uniform(0.5, 2.0, size=n))
    return model, rng


@bounded
@given(shapes)
def test_json_save_load_predicts_bit_identically(shape):
    model, rng = random_model(*shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        back, _ = load_model(path)
    assert back.order == model.order and back.steps == model.steps
    X = rng.uniform(-1.0, 1.0, size=(16, model.n_features))
    np.testing.assert_array_equal(predict(back, X), predict(model, X))


@bounded
@given(shapes)
def test_extract_rebuild_is_exact(shape):
    model, _ = random_model(*shape)
    ode = extract_ode(model)
    rebuilt = rebuild_map(ode, model.steps)
    np.testing.assert_array_equal(rebuilt.delta, model.map.delta)
    np.testing.assert_array_equal(rebuilt.W, model.map.W)


@bounded
@given(shapes, st.integers(1, 3))
def test_raise_order_at_doublings_keeps_the_ode(shape, doublings):
    model, _ = random_model(*shape)
    raised = raise_order(model, model.steps * 2 ** doublings)
    np.testing.assert_array_equal(extract_ode(raised).A, extract_ode(model).A)
    np.testing.assert_array_equal(raised.init_state, model.init_state)
    assert raised.order == model.order
