"""Taylor-map polynomial networks: high-order polynomial regression by
iterating one shared low-order polynomial map.

A model of order k and p steps realizes a polynomial of order up to k**p
in the inputs while storing only the coefficients of a single order-k map,
trains by gradient descent, and is exactly the Euler discretization of a
polynomial ODE system that can be extracted and inspected.
"""

from .basis import MonomialBasis, build_basis
from .data import (Dataset, gen_friedman1, gen_noisy_linear, load_csv,
                   load_table, metric_mse, metric_r2, save_csv, split_quantile,
                   split_random)
from .errors import DivergenceError, TmpnnError, TrainingDivergedError
from .io import load_model, model_from_dict, model_to_dict, save_model
from .model import (Scaler, TmpnnModel, TrainConfig, TrainReport, fit, forward,
                    loss_and_gradient, predict)
from .odeview import (OdeSystem, extract_ode, integrate_reference, raise_order,
                      rebuild_map, render_ode, rescale_time)
from .optim import AdamaxState, adamax_step
from .taylor_map import TaylorMapWeights, identity_weights

__version__ = "0.1.0"

__all__ = [
    "MonomialBasis", "build_basis", "TaylorMapWeights", "identity_weights",
    "TmpnnModel", "TrainConfig", "TrainReport", "Scaler",
    "forward", "predict", "loss_and_gradient", "fit",
    "AdamaxState", "adamax_step",
    "OdeSystem", "extract_ode", "rebuild_map", "raise_order",
    "integrate_reference", "render_ode", "rescale_time",
    "Dataset", "gen_friedman1", "gen_noisy_linear", "load_csv", "load_table",
    "save_csv", "split_random", "split_quantile", "metric_mse", "metric_r2",
    "save_model", "load_model", "model_to_dict", "model_from_dict",
    "TmpnnError", "DivergenceError", "TrainingDivergedError",
    "__version__",
]
