"""Taylor-map polynomial networks: high-order polynomial regression by
iterating one shared low-order polynomial map.

A model of order k and p steps realizes a polynomial of order up to k**p
in the inputs while storing only the coefficients of a single order-k map,
trains by gradient descent, and is exactly the Euler discretization of a
polynomial ODE system that can be extracted and inspected.

Importing the package loads none of its submodules (nor numpy): each public
name is imported from its submodule on first use, so a caller pays only for
what it touches, and the command line can parse its arguments first.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "MonomialBasis": "basis", "build_basis": "basis",
    "TaylorMapWeights": "taylor_map", "identity_weights": "taylor_map",
    "TmpnnModel": "model", "TrainConfig": "model", "TrainReport": "model",
    "Scaler": "model",
    "forward": "model", "predict": "model", "loss_and_gradient": "model",
    "fit": "model",
    "AdamaxState": "optim", "adamax_step": "optim",
    "OdeSystem": "odeview", "extract_ode": "odeview",
    "rebuild_map": "odeview", "raise_order": "odeview",
    "integrate_reference": "odeview", "render_ode": "odeview",
    "rescale_time": "odeview",
    "Dataset": "data", "gen_friedman1": "data", "gen_noisy_linear": "data",
    "load_csv": "data", "load_table": "data", "save_csv": "data",
    "split_random": "data", "split_quantile": "data", "metric_mse": "data",
    "metric_r2": "data",
    "save_model": "io", "load_model": "io", "model_to_dict": "io",
    "model_from_dict": "io",
    "TmpnnError": "errors", "DivergenceError": "errors",
    "TrainingDivergedError": "errors",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # the submodules behind the table resolve as attributes too, as they
    # did when the package imported them all up front
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
