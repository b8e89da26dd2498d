"""Model serialization: exact round trips, validation, and stable bytes."""

import json
import re

import numpy as np
import pytest

from tmpnn import (Dataset, TmpnnModel, TrainConfig, fit, load_model,
                   model_from_dict, model_to_dict, predict, save_model)


def make_model(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    defaults = dict(n_latent=1, order=2, steps=3, init_trainable=True,
                    reg_l1=1e-5, reg_l2=1e-4)
    defaults.update(kwargs)
    model = TmpnnModel.create(2, 2, **defaults)
    model.map.delta = rng.normal(0, 0.1, model.map.delta.shape)
    model.init_state = rng.normal(0, 0.5, model.init_state.shape)
    return model


def test_round_trip_preserves_everything(tmp_path):
    model = make_model()
    path = tmp_path / "m.json"
    save_model(model, path, feature_names=["a", "b"], target_names=["u", "v"],
               training={"epochs_run": 7})
    back, extras = load_model(path)

    for attr in ("n_features", "n_targets", "n_latent", "order", "steps",
                 "init_trainable", "reg_l1", "reg_l2", "standardize"):
        assert getattr(back, attr) == getattr(model, attr)
    np.testing.assert_array_equal(back.map.delta, model.map.delta)
    np.testing.assert_array_equal(back.init_state, model.init_state)
    assert back.scaler is None
    assert extras == {"feature_names": ["a", "b"],
                      "target_names": ["u", "v"],
                      "training": {"epochs_run": 7}}


def test_fitted_model_predicts_bit_identically_after_reload(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (60, 2))
    data = Dataset(X, np.stack([X[:, 0] * X[:, 1], X.sum(1)], 1),
                   ["a", "b"], ["p", "q"])
    model = TmpnnModel.create(2, 2, order=2, steps=3)
    fit(model, data, config=TrainConfig(epochs=40, shuffle_seed=1))
    assert model.scaler is not None

    path = tmp_path / "fitted.json"
    save_model(model, path)
    back, _ = load_model(path)
    np.testing.assert_array_equal(back.scaler.mean, model.scaler.mean)
    np.testing.assert_array_equal(back.scaler.scale, model.scaler.scale)
    probe = rng.uniform(-2, 2, (25, 2))
    np.testing.assert_array_equal(predict(back, probe), predict(model, probe))


def test_equal_models_serialize_to_equal_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(make_model(seed=4), p1, feature_names=["a", "b"])
    save_model(make_model(seed=4), p2, feature_names=["a", "b"])
    assert p1.read_bytes() == p2.read_bytes()
    # no hidden state: the document is plain JSON with a trailing newline
    text = p1.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["kind"] == "tmpnn-model"
    assert doc["format_version"] == 1
    assert doc["weights_form"] == "identity-deviation"


def test_document_round_trip_without_files():
    model = make_model(seed=2)
    doc = model_to_dict(model)
    back, extras = model_from_dict(doc)
    np.testing.assert_array_equal(back.map.delta, model.map.delta)
    assert extras["feature_names"] is None


def test_version_and_kind_gates(tmp_path):
    model = make_model()
    doc = model_to_dict(model)
    doc["format_version"] = 2
    with pytest.raises(ValueError, match="version"):
        model_from_dict(doc)

    doc = model_to_dict(model)
    doc["weights_form"] = "raw"
    with pytest.raises(ValueError, match="weights_form"):
        model_from_dict(doc)

    # weights laid out by another monomial ordering would load mis-mapped
    doc = model_to_dict(model)
    doc["basis_ordering"] = "graded lexicographic"
    with pytest.raises(ValueError, match="basis_ordering"):
        model_from_dict(doc)

    path = tmp_path / "notamodel.json"
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)


def test_format_version_is_an_exact_integer():
    # true == 1 and "1" are not version 1; a JSON writer's 1.0 is
    doc = model_to_dict(make_model())
    doc["format_version"] = 1.0
    model_from_dict(doc)
    for value in (True, "1"):
        doc["format_version"] = value
        with pytest.raises(ValueError,
                           match="'format_version' must be an int"):
            model_from_dict(doc)


# explicit ids: each case keeps its name when its message is reworded
@pytest.mark.parametrize("mutate,fragment", [
    pytest.param(lambda d: d.update(n_features=0),
                 "'n_features' must be an int >= 1",
                 id="<lambda>-non-positive0"),
    pytest.param(lambda d: d.update(steps=0), "'steps' must be an int >= 1",
                 id="<lambda>-non-positive1"),
    (lambda d: d.update(weights=d["weights"][:-1]), "shape"),
    (lambda d: d.update(init_state=[0.0]), "init_state"),
    pytest.param(lambda d: d["scaler"].update(mean=[0.0]),
                 "'scaler.mean' must have shape (2,)",
                 id="<lambda>-per feature"),
])
def test_dimension_validation(mutate, fragment):
    model = make_model()
    doc = model_to_dict(model)
    doc["scaler"] = {"mean": [0.0, 0.0], "scale": [1.0, 1.0]}
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        model_from_dict(doc)


@pytest.mark.parametrize("key,value,fragment", [
    ("feature_names", "ab", "'feature_names' must be null or a list of 2"),
    ("target_names", ["u"], "'target_names' must be null or a list of 2"),
    ("init_trainable", "no", "'init_trainable' must be true or false"),
    pytest.param("init_state", 5, "'init_state' must have shape (3,), got ()",
                 id="init_state-5-init_state shape ()"),
    ("init_state", [1.0, [2.0]], "'init_state' must hold numbers only"),
    pytest.param("reg_l1", -1.0, "'reg_l1' must be finite and >= 0",
                 id="reg_l1--1.0-'reg_l1' must be a number >= 0"),
    pytest.param("weights", 10 ** 400,
                 "'weights' holds an int beyond the float range",
                 id=f"weights-{10 ** 400}-'weights' must hold finite numbers"),
    # a repeated name used to load, so two columns claimed one name
    ("feature_names", ["a", "a"],
     "'feature_names' must be null or a list of 2 distinct strings"),
])
def test_malformed_fields_name_the_key(key, value, fragment):
    doc = model_to_dict(make_model())
    doc[key] = value
    with pytest.raises(ValueError, match=re.escape(fragment)):
        model_from_dict(doc)


def test_nan_weights_refuse_to_serialize(tmp_path):
    model = make_model()
    model.map.delta[0, 0] = np.inf
    with pytest.raises(ValueError):
        save_model(model, tmp_path / "bad.json")
    # the document used to be streamed into the open file, so an inf in
    # the training record left an existing file cut off at "test_mse"
    path = tmp_path / "m.json"
    save_model(make_model(), path, training={"test_mse": 1.0})
    before = path.read_bytes()
    for bad, training in ((model, None),
                          (make_model(), {"test_mse": float("inf")})):
        with pytest.raises(ValueError):
            save_model(bad, path, training=training)
        assert path.read_bytes() == before


def test_dimensions_are_exact_integers():
    model = make_model()
    doc = model_to_dict(model)
    doc["order"] = 2.0  # JSON writers may spell an integer this way
    back, _ = model_from_dict(doc)
    assert back.order == 2 and isinstance(back.steps, int)
    for key, value in (("n_latent", 1.5), ("order", False), ("steps", "3")):
        doc = model_to_dict(model)
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be an int >= "):
            model_from_dict(doc)


def test_absurd_dimensions_fail_before_the_basis_is_built():
    # 10**9 features would enumerate ~10**26 monomials; the weight shape
    # check comes first
    doc = model_to_dict(make_model())
    doc["n_features"] = 10 ** 9
    with pytest.raises(ValueError, match="shape"):
        model_from_dict(doc)
