"""Model save/load as a versioned, human-readable JSON document.

The file is self-describing: dimensions, basis ordering contract, the
stored coefficient form, scaler state, and training metadata all travel
with the weights, and loading validates every dimension relation before
constructing a model.  Floats are written in shortest round-trip form, so
a saved model predicts bit-identically after loading.  No timestamps or
environment details are recorded; equal models serialize to equal bytes.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .basis import build_basis
from .model import Scaler, TmpnnModel
from .taylor_map import TaylorMapWeights

FORMAT_VERSION = 1
BASIS_ORDERING = "degree-ascending, ties by descending exponent lexicographic"
WEIGHTS_FORM = "identity-deviation"


def model_to_dict(model: TmpnnModel, *, feature_names=None, target_names=None,
                  training=None) -> dict:
    """The JSON-ready document for a model (see save_model)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "tmpnn-model",
        "n_features": model.n_features,
        "n_targets": model.n_targets,
        "n_latent": model.n_latent,
        "order": model.order,
        "steps": model.steps,
        "basis_ordering": BASIS_ORDERING,
        "weights_form": WEIGHTS_FORM,
        "weights": model.map.delta.tolist(),
        "init_state": model.init_state.tolist(),
        "init_trainable": model.init_trainable,
        "reg_l1": model.reg_l1,
        "reg_l2": model.reg_l2,
        "standardize": model.standardize,
        "scaler": None if model.scaler is None else {
            "mean": model.scaler.mean.tolist(),
            "scale": model.scaler.scale.tolist(),
        },
        "feature_names": list(feature_names) if feature_names else None,
        "target_names": list(target_names) if target_names else None,
        "training": training,
    }
    return doc


def save_model(model: TmpnnModel, path, *, feature_names=None,
               target_names=None, training=None) -> None:
    """Write the model to path as JSON.

    Args:
        model: the model to serialize.
        path: destination file.
        feature_names, target_names: optional column names recorded for
            rendering and prediction output headers.
        training: optional JSON-compatible dict of training metadata
            (seed, epochs run, final losses).
    """
    doc = model_to_dict(model, feature_names=feature_names,
                        target_names=target_names, training=training)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def model_from_dict(doc: dict) -> tuple[TmpnnModel, dict]:
    """Rebuild a model from a document; returns (model, extras).

    extras carries feature_names, target_names and training metadata.

    Raises:
        ValueError: version mismatch, a missing key, a dimension that is
            not an integer (bool and fractional values included) or out
            of range, a malformed scaler, or any inconsistent dimension;
            the message names the key.
    """
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version!r}; "
                         f"this build reads version {FORMAT_VERSION}")
    if doc.get("weights_form") != WEIGHTS_FORM:
        raise ValueError(f"unknown weights_form {doc.get('weights_form')!r}")

    n, m, latent, order, steps = (
        _dimension(doc, key, low) for key, low in
        (("n_features", 1), ("n_targets", 1), ("n_latent", 0),
         ("order", 1), ("steps", 1)))

    # the shape is checked before the basis is enumerated, so absurd
    # dimensions fail here instead of building a huge table
    dim = n + m + latent
    delta = np.asarray(_required(doc, "weights"), dtype=np.float64)
    if delta.shape != (math.comb(dim + order, order), dim):
        raise ValueError(f"weight matrix shape {delta.shape} does not match "
                         f"basis {(math.comb(dim + order, order), dim)}")
    basis = build_basis(dim, order)
    init_state = np.asarray(_required(doc, "init_state"), dtype=np.float64)
    if init_state.shape != (m + latent,):
        raise ValueError(f"init_state length {init_state.shape[0]} must be "
                         f"{m + latent}")

    scaler = None
    if doc.get("scaler") is not None:
        if not (isinstance(doc["scaler"], dict)
                and {"mean", "scale"} <= doc["scaler"].keys()):
            raise ValueError("model file key 'scaler' must be null or an "
                             "object with 'mean' and 'scale'")
        mean = np.asarray(doc["scaler"]["mean"], dtype=np.float64)
        scale = np.asarray(doc["scaler"]["scale"], dtype=np.float64)
        if mean.shape != (n,) or scale.shape != (n,):
            raise ValueError("scaler arrays must have one entry per feature")
        scaler = Scaler(mean=mean, scale=scale)

    model = TmpnnModel(
        n_features=n, n_targets=m, n_latent=latent, steps=steps,
        map=TaylorMapWeights(basis=basis, delta=delta),
        init_state=init_state,
        init_trainable=bool(doc.get("init_trainable", False)),
        reg_l1=float(doc.get("reg_l1", 0.0)),
        reg_l2=float(doc.get("reg_l2", 0.0)),
        standardize=bool(doc.get("standardize", True)),
        scaler=scaler)
    extras = {
        "feature_names": doc.get("feature_names"),
        "target_names": doc.get("target_names"),
        "training": doc.get("training"),
    }
    return model, extras


def _required(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"model file is missing {key!r}")
    return doc[key]


def _dimension(doc: dict, key: str, low: int) -> int:
    """doc[key] as an exact int >= low; JSON's 2.0 reads as 2."""
    value = _required(doc, key)
    integral = (isinstance(value, numbers.Integral)
                or (isinstance(value, float) and value.is_integer()))
    if isinstance(value, bool) or not integral:
        raise ValueError(f"model file key {key!r} must be an integer, "
                         f"got {value!r}")
    if value < low:
        raise ValueError(f"model file has non-positive dimensions: {key!r} "
                         f"is {value!r}, below {low}")
    return int(value)


def load_model(path) -> tuple[TmpnnModel, dict]:
    """Read a model file written by save_model; returns (model, extras)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "tmpnn-model":
        raise ValueError(f"{path} is not a model file")
    return model_from_dict(doc)
