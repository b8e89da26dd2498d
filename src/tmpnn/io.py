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
        ValueError: a missing key, a format_version or dimension that
            is not an integer (bool, strings and fractions included), a
            version mismatch, a dimension out of range, an array or
            number field holding anything but finite numbers (bool is
            not a number), a flag that is not true or false, names that
            are not null or one string per column, a malformed scaler,
            or any inconsistent shape; the message names the key.
    """
    version = _integer(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version!r}; "
                         f"this build reads version {FORMAT_VERSION}")
    if doc.get("weights_form") != WEIGHTS_FORM:
        raise ValueError(f"unknown weights_form {doc.get('weights_form')!r}")

    n, m, latent, order, steps = (
        _dimension(doc, key, low) for key, low in
        (("n_features", 1), ("n_targets", 1), ("n_latent", 0),
         ("order", 1), ("steps", 1)))

    # the width is checked before the basis size is computed and the size
    # before the basis is enumerated, so absurd dimensions fail here
    # instead of building a huge table
    dim = n + m + latent
    delta = _floats(_required(doc, "weights"), "weights")
    if delta.ndim != 2 or delta.shape[1] != dim:
        raise ValueError(f"weight matrix shape {delta.shape} does not have "
                         f"{dim} columns, one per state variable")
    size = math.comb(dim + order, order)
    if delta.shape[0] != size:
        raise ValueError(f"weight matrix shape {delta.shape} does not match "
                         f"basis {(size, dim)}")
    init_state = _floats(_required(doc, "init_state"), "init_state")
    if init_state.shape != (m + latent,):
        raise ValueError(f"init_state shape {init_state.shape} must be "
                         f"({m + latent},)")

    # a missing scaler would silently predict in unscaled coordinates
    scaler = _required(doc, "scaler")
    if scaler is not None:
        if not (isinstance(scaler, dict) and {"mean", "scale"} <= scaler.keys()):
            raise ValueError("model file key 'scaler' must be null or an "
                             "object with 'mean' and 'scale'")
        mean, scale = (_floats(scaler[part], f"scaler.{part}")
                       for part in ("mean", "scale"))
        if mean.shape != (n,) or scale.shape != (n,):
            raise ValueError("scaler arrays must have one entry per feature")
        scaler = Scaler(mean=mean, scale=scale)

    model = TmpnnModel(
        n_features=n, n_targets=m, n_latent=latent, steps=steps,
        map=TaylorMapWeights(basis=build_basis(dim, order), delta=delta),
        init_state=init_state,
        init_trainable=_flag(doc, "init_trainable", False),
        reg_l1=_coefficient(doc, "reg_l1"),
        reg_l2=_coefficient(doc, "reg_l2"),
        standardize=_flag(doc, "standardize", True),
        scaler=scaler)
    extras = {
        "feature_names": _names(doc, "feature_names", n),
        "target_names": _names(doc, "target_names", m),
        "training": doc.get("training"),
    }
    return model, extras


def _required(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"model file is missing {key!r}")
    return doc[key]


def _integer(doc: dict, key: str) -> int:
    """doc[key] as an exact int; JSON's 2.0 reads as 2, true and "2" fail."""
    value = _required(doc, key)
    integral = (isinstance(value, numbers.Integral)
                or (isinstance(value, float) and value.is_integer()))
    if isinstance(value, bool) or not integral:
        raise ValueError(f"model file key {key!r} must be an integer, "
                         f"got {value!r}")
    return int(value)


def _dimension(doc: dict, key: str, low: int) -> int:
    """doc[key] as an exact int >= low."""
    value = _integer(doc, key)
    if value < low:
        raise ValueError(f"model file has non-positive dimensions: {key!r} "
                         f"is {value!r}, below {low}")
    return value


def _floats(value, key: str) -> np.ndarray:
    """value, a number or nested lists of them, as a float64 array.

    Every entry must be a finite real number; bool, strings, null,
    objects and ragged lists (whose rows are entries of an object array)
    are a ValueError naming key, as are NaN and the infinities that
    Python's JSON reader accepts.
    """
    entries = np.array(value, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in entries.flat):
        raise ValueError(f"model file key {key!r} must hold numbers only")
    try:
        array = entries.astype(np.float64)
    except OverflowError:  # an integer beyond the float range
        array = np.array(np.inf)
    if not np.isfinite(array).all():
        raise ValueError(f"model file key {key!r} must hold finite numbers")
    return array


def _coefficient(doc: dict, key: str) -> float:
    """doc[key], default 0, as one finite number >= 0."""
    value = _floats(doc.get(key, 0.0), key)
    if value.shape != () or value < 0:
        raise ValueError(f"model file key {key!r} must be a number >= 0")
    return float(value)


def _flag(doc: dict, key: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"model file key {key!r} must be true or false, "
                         f"got {value!r}")
    return value


def _names(doc: dict, key: str, count: int):
    """doc[key]: null (the default) or a list of count strings."""
    value = doc.get(key)
    if value is not None and not (
            isinstance(value, list) and len(value) == count
            and all(isinstance(name, str) for name in value)):
        raise ValueError(f"model file key {key!r} must be null or a list "
                         f"of {count} strings")
    return value


def load_model(path) -> tuple[TmpnnModel, dict]:
    """Read a model file written by save_model; returns (model, extras)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "tmpnn-model":
        raise ValueError(f"{path} is not a model file")
    return model_from_dict(doc)
