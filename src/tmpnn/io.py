"""Model save/load as a versioned, human-readable JSON document.

The file is self-describing: dimensions, basis ordering contract, the
stored coefficient form, scaler state, and training metadata all travel
with the weights, and loading checks every field (each count, number and
array by errors.py's rules) before constructing a model.  Floats are
written in shortest round-trip form, so a saved model predicts
bit-identically after loading.  No timestamps or environment details are
recorded; equal models serialize to equal bytes.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .basis import build_basis
from .data import _write_text
from .errors import _check_finite, _check_int, _check_real
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
    _write_json(path, model_to_dict(model, feature_names=feature_names,
                                    target_names=target_names, training=training))


def _write_json(path, doc) -> None:
    """Write doc to path as JSON; the text is made whole before the file
    opens, so a document that cannot be written (a non-finite number is a
    ValueError) leaves path as it was."""
    _write_text(path, [json.dumps(doc, indent=1, allow_nan=False), "\n"])


def model_from_dict(doc: dict) -> tuple[TmpnnModel, dict]:
    """Rebuild a model from a document; returns (model, extras).

    extras carries feature_names, target_names and training metadata.

    Raises:
        ValueError: a missing key; a format_version, basis_ordering or
            weights_form other than this build's; a count, number or
            array that breaks errors.py's rule for it (the message starts
            with "model file key" and the key, such as 'steps' or
            'scaler.mean'); an entry that is not a number (bool and
            strings are not); a flag that is not true or false; names
            that are not null or one string per column; or a malformed
            scaler.  A count may be written 2.0, which reads as 2.
    """
    version = _count(doc, "format_version", 1)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version!r}; "
                         f"this build reads version {FORMAT_VERSION}")
    for key, known in (("basis_ordering", BASIS_ORDERING),
                       ("weights_form", WEIGHTS_FORM)):
        if doc.get(key) != known:
            raise ValueError(f"unknown {key} {doc.get(key)!r}")

    n, m, latent, order, steps = (
        _count(doc, key, least) for key, least in
        (("n_features", 1), ("n_targets", 1), ("n_latent", 0),
         ("order", 1), ("steps", 1)))

    # the width is checked before the basis size is computed and the size
    # before the basis is enumerated, so absurd dimensions fail here
    # instead of building a huge table
    dim = n + m + latent
    weights = _numbers(_required(doc, "weights"), "weights")
    size = math.comb(dim + order, order) if weights.shape[1:] == (dim,) else None
    delta = _check_finite(_key("weights"), weights, (size, dim))
    init_state = _floats(_required(doc, "init_state"), "init_state",
                         (m + latent,))

    # a missing scaler would silently predict in unscaled coordinates
    scaler = _required(doc, "scaler")
    if scaler is not None:
        if not (isinstance(scaler, dict) and {"mean", "scale"} <= scaler.keys()):
            raise ValueError("model file key 'scaler' must be null or an "
                             "object with 'mean' and 'scale'")
        scaler = Scaler(*(_floats(scaler[part], f"scaler.{part}", (n,))
                          for part in ("mean", "scale")))

    reg_l1, reg_l2 = (doc.get(key, 0.0) for key in ("reg_l1", "reg_l2"))
    _check_real(_key("reg_l1"), reg_l1, 0)
    _check_real(_key("reg_l2"), reg_l2, 0)
    model = TmpnnModel(
        n_features=n, n_targets=m, n_latent=latent, steps=steps,
        map=TaylorMapWeights(basis=build_basis(dim, order), delta=delta),
        init_state=init_state,
        init_trainable=_flag(doc, "init_trainable", False),
        reg_l1=float(reg_l1), reg_l2=float(reg_l2),
        standardize=_flag(doc, "standardize", True),
        scaler=scaler)
    extras = {
        "feature_names": _names(doc, "feature_names", n),
        "target_names": _names(doc, "target_names", m),
        "training": doc.get("training"),
    }
    return model, extras


def _key(key: str) -> str:
    """The name errors.py's checks give a document field."""
    return f"model file key {key!r}"


def _required(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"model file is missing {key!r}")
    return doc[key]


def _count(doc: dict, key: str, least: int) -> int:
    """doc[key] as an int >= least; JSON's 2.0 reads as 2, true and "2"
    fail."""
    value = _required(doc, key)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _check_int(_key(key), value, least)
    return value


def _numbers(value, key: str) -> np.ndarray:
    """value, a number or nested lists of them, as an object array; a
    ValueError naming key unless every entry is a number: bool, strings,
    null, objects and ragged lists (whose rows are entries) are not."""
    entries = np.array(value, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in entries.flat):
        raise ValueError(f"model file key {key!r} must hold numbers only")
    return entries


def _floats(value, key: str, shape) -> np.ndarray:
    """value as a float64 array of the shape, by the numbers-only scan
    and errors.py's array rule."""
    return _check_finite(_key(key), _numbers(value, key), shape)


def _flag(doc: dict, key: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"model file key {key!r} must be true or false, "
                         f"got {value!r}")
    return value


def _names(doc: dict, key: str, count: int):
    """doc[key]: null (the default) or a list of count distinct strings."""
    value = doc.get(key)
    if value is not None and not (
            isinstance(value, list) and all(isinstance(n, str) for n in value)
            and len(set(value)) == len(value) == count):
        raise ValueError(f"model file key {key!r} must be null or a list "
                         f"of {count} distinct strings")
    return value


def load_model(path) -> tuple[TmpnnModel, dict]:
    """Read a model file written by save_model; returns (model, extras)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "tmpnn-model":
        raise ValueError(f"{path} is not a model file")
    return model_from_dict(doc)
