"""Adamax updates over lists of parameter arrays.

The optimizer's published constants (Kingma & Ba, "Adam: A Method for
Stochastic Optimization", ICLR 2015) are defined here once: ALPHA is the
default learning rate, BETA1 and BETA2 the decay rates of the two moments
and EPSILON the denominator's guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import _check_finite

ALPHA, BETA1, BETA2, EPSILON = 0.002, 0.9, 0.999, 1e-8


@dataclass
class AdamaxState:
    """State of the Adamax optimizer for a list of parameter arrays:
    first_moment is the exponential moving average of gradients and
    inf_norm the exponentially weighted infinity norm."""

    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    inf_norm: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def init(cls, params: list[np.ndarray]) -> "AdamaxState":
        """Fresh zeroed state shaped like params."""
        return cls(first_moment=[np.zeros_like(p) for p in params],
                   inf_norm=[np.zeros_like(p) for p in params])


def adamax_step(state: AdamaxState, params: list[np.ndarray],
                gradient: list[np.ndarray],
                lr: float = ALPHA) -> list[np.ndarray]:
    """One Adamax update at learning rate lr; mutates state, returns the
    new parameter arrays.

    m <- BETA1 m + (1 - BETA1) g
    u <- max(BETA2 u, |g|)
    theta <- theta - (lr / (1 - BETA1^t)) * m / (u + EPSILON)

    Raises:
        ValueError: when params, gradient and state differ in length, or a
            gradient is not finite or not shaped like its parameter.
    """
    if len(params) != len(gradient) or len(params) != len(state.first_moment):
        raise ValueError("params, gradient and state must have equal lengths")
    gradient = [_check_finite(f"gradient[{i}]", g, p.shape)
                for i, (p, g) in enumerate(zip(params, gradient))]

    state.step_count += 1
    correction = 1.0 - BETA1 ** state.step_count
    out = []
    for i, (p, g) in enumerate(zip(params, gradient)):
        m = BETA1 * state.first_moment[i] + (1.0 - BETA1) * g
        u = np.maximum(BETA2 * state.inf_norm[i], np.abs(g))
        state.first_moment[i] = m
        state.inf_norm[i] = u
        out.append(p - (lr / correction) * m / (u + EPSILON))
    return out
