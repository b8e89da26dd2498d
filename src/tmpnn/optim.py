"""Adamax updates over lists of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import _check_finite


@dataclass
class AdamaxState:
    """State of the Adamax optimizer for a list of parameter arrays.

    first_moment is the exponential moving average of gradients and
    inf_norm the exponentially weighted infinity norm.  Defaults follow the
    optimizer's published constants; this class is the one place they are
    set.
    """

    alpha: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    inf_norm: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def init(cls, params: list[np.ndarray], *,
             alpha: float = 0.002) -> "AdamaxState":
        """Fresh zeroed state shaped like params."""
        return cls(alpha=alpha,
                   first_moment=[np.zeros_like(p) for p in params],
                   inf_norm=[np.zeros_like(p) for p in params])


def adamax_step(state: AdamaxState, params: list[np.ndarray],
                gradient: list[np.ndarray],
                lr: float | None = None) -> list[np.ndarray]:
    """One Adamax update; mutates state, returns the new parameter arrays.

    m <- beta1 m + (1 - beta1) g
    u <- max(beta2 u, |g|)
    theta <- theta - (alpha / (1 - beta1^t)) * m / (u + epsilon)

    Args:
        state: optimizer state; step_count and moments are advanced.
        params: current parameter arrays.
        gradient: matching gradient arrays, all finite.
        lr: optional override of state.alpha for this step (used by the
            trainer's divergence recovery).

    Raises:
        ValueError: on shape mismatch or non-finite gradient entries.
    """
    if len(params) != len(gradient) or len(params) != len(state.first_moment):
        raise ValueError("params, gradient and state must have equal lengths")
    gradient = [_check_finite(f"gradient[{i}]", g, p.shape)
                for i, (p, g) in enumerate(zip(params, gradient))]

    alpha = state.alpha if lr is None else lr
    state.step_count += 1
    correction = 1.0 - state.beta1 ** state.step_count
    out = []
    for i, (p, g) in enumerate(zip(params, gradient)):
        m = state.first_moment[i]
        u = state.inf_norm[i]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        u = np.maximum(state.beta2 * u, np.abs(g))
        state.first_moment[i] = m
        state.inf_norm[i] = u
        out.append(p - (alpha / correction) * m / (u + state.epsilon))
    return out
