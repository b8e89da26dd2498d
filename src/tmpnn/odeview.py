"""The continuous-time view of a trained model.

The p-step forward pass is the explicit Euler discretization, with step
1/p over the unit interval, of the polynomial system

    dZ/dtau = A0 + A1 Z + A2 Z^[2] + ... + Ak Z^[k],

where A_q = p W_q for q != 1 and A1 = p (W1 - I).  Because the map stores
its coefficients as the deviation from the identity (taylor_map), both
directions of this correspondence are a single scalar multiplication of
one matrix, and converting a model to its ODE and back at the same step
count is bit-exact.

This module extracts the system, renders it as readable equations,
integrates it with a high-order reference method (a test oracle and
inspection aid only; training never touches an ODE solver), rebuilds a map
with a different number of Euler steps (raising the composed polynomial
order at constant parameter count), and rescales the integration horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import MonomialBasis, eval_monomials_batch
from .errors import DivergenceError
from .model import TmpnnModel
from .taylor_map import TaylorMapWeights

__all__ = ["OdeSystem", "extract_ode", "rebuild_map", "raise_order",
           "integrate_reference", "render_ode", "rescale_time"]


@dataclass(eq=False)
class OdeSystem:
    """Coefficients of dZ/dtau = A0 + A1 Z + ... over tau in [0, 1].

    A has the shape and row layout of the generating map's coefficient
    matrix.  When the system came from extract_ode, the source map's
    stored parameters are kept privately so that rebuilding at the same
    step count returns them bit-exactly (dividing the rounded product
    A = p * delta by p does not always do that on its own).
    """

    basis: MonomialBasis
    A: np.ndarray
    _source: tuple[np.ndarray, int] | None = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        expected = (self.basis.size, self.basis.dim)
        if self.A.shape != expected:
            raise ValueError(f"A has shape {self.A.shape}, expected {expected}")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def order(self) -> int:
        return self.basis.order


def _closest_quotient(a: np.ndarray, divisor: float) -> np.ndarray:
    """Per entry, the double x minimizing |x * divisor - a|.

    Checks the rounded quotient and its four nearest neighbors, preferring
    an exact product.  Whenever a is itself a rounded multiple of divisor,
    an exact preimage exists in that neighborhood, so the result satisfies
    x * divisor == a; other targets (possible after changing the divisor)
    get the best achievable product, within one spacing of a.
    """
    x = a / divisor
    best = x.copy()
    err = np.abs(best * divisor - a)
    up = x.copy()
    down = x.copy()
    for _ in range(2):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        for cand in (up, down):
            e = np.abs(cand * divisor - a)
            better = e < err
            best = np.where(better, cand, best)
            err = np.where(better, e, err)
    return best


def extract_ode(model: TmpnnModel) -> OdeSystem:
    """The polynomial system whose Euler discretization is the model.

    A_q = p W_q for q != 1 and A1 = p (W1 - I); in the stored
    identity-deviation form both are A = p * delta.  The system describes
    the model's internal state, so when feature standardization is on, the
    feature coordinates are the scaled ones.
    """
    p = float(model.steps)
    return OdeSystem(basis=model.basis, A=p * model.map.delta,
                     _source=(model.map.delta.copy(), model.steps))


def rebuild_map(ode: OdeSystem, steps: int) -> TaylorMapWeights:
    """The map whose `steps`-step Euler scheme integrates the system.

    W_q = A_q / steps for q != 1 and W1 = I + A1 / steps.  At the step
    count the system was extracted with, this is the exact inverse of
    extract_ode (bit-identical weights).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if ode._source is not None and ode._source[1] == steps:
        return TaylorMapWeights(basis=ode.basis, delta=ode._source[0].copy())
    return TaylorMapWeights(basis=ode.basis,
                            delta=_closest_quotient(ode.A, float(steps)))


def _scaled_delta(delta: np.ndarray, old_steps: int, new_steps: int) -> np.ndarray:
    """delta for new_steps preserving new_steps * result == old_steps * delta.

    When new_steps is old_steps times a power of two the scaling is exact
    arithmetic, so the rounded products agree bit for bit; otherwise the
    nearest-quotient search makes them agree wherever a preimage exists
    (within one float spacing in any case).
    """
    ratio = new_steps // old_steps if new_steps % old_steps == 0 else 0
    if ratio and (ratio & (ratio - 1)) == 0:
        return delta / ratio
    return _closest_quotient(float(old_steps) * delta, float(new_steps))


def raise_order(model: TmpnnModel, new_steps: int) -> TmpnnModel:
    """Re-initialize the model with more Euler steps on the same system.

    The returned model shares the extracted ODE of the original, so its
    predictions track the same continuous dynamics with a finer step while
    the composed polynomial order grows from order**steps to
    order**new_steps at unchanged parameter count.  The identity map is a
    fixed point.

    Raises:
        ValueError: unless new_steps > model.steps.
    """
    if new_steps <= model.steps:
        raise ValueError(f"new_steps must exceed the current {model.steps}")
    delta = _scaled_delta(model.map.delta, model.steps, new_steps)
    return replace(model, steps=new_steps,
                   map=TaylorMapWeights(basis=model.basis, delta=delta),
                   init_state=model.init_state.copy())


def rescale_time(model: TmpnnModel, tau_bar: float) -> TmpnnModel:
    """Change the integration horizon from 1 to tau_bar without retraining.

    W_q scales by tau_bar for q != 1 and W1 maps to (W1 - I) tau_bar + I;
    in deviation form that is one multiplication.  tau_bar = 1 returns an
    identical model; tau_bar = 0 collapses the map to the identity.
    """
    if not tau_bar >= 0:
        raise ValueError("tau_bar must be non-negative")
    return replace(model,
                   map=TaylorMapWeights(basis=model.basis,
                                        delta=model.map.delta * tau_bar),
                   init_state=model.init_state.copy())


def integrate_reference(ode: OdeSystem, z0, n_steps: int = 1000,
                        t_end: float = 1.0) -> np.ndarray:
    """Integrate the system with fixed-step classical Runge-Kutta.

    A high-accuracy oracle for comparing the model's Euler trajectory
    against the continuous system; never used in training.

    Args:
        ode: the polynomial system.
        z0: initial state of length ode.dim.
        n_steps: number of RK4 steps (>= 1).
        t_end: integration horizon (default the unit interval).

    Returns:
        The state at tau = t_end.

    Raises:
        DivergenceError: if the trajectory becomes non-finite.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    z = np.asarray(z0, dtype=np.float64)
    if z.shape != (ode.dim,):
        raise ValueError(f"z0 must have length {ode.dim}")
    A = ode.A
    # one monomial buffer serves all 4 * n_steps field evaluations
    phi = np.empty((ode.basis.size, 1))

    def field(state: np.ndarray) -> np.ndarray:
        return eval_monomials_batch(ode.basis, state[None, :], phi)[0] @ A

    h = t_end / n_steps
    # overflow surfaces as a structured DivergenceError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            k1 = field(z)
            k2 = field(z + 0.5 * h * k1)
            k3 = field(z + 0.5 * h * k2)
            k4 = field(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(z).all():
                raise DivergenceError(
                    f"reference integration diverged at step {step + 1}",
                    step=step + 1, state=z)
    return z


def _format_monomial(exponents: np.ndarray, names: list[str]) -> str:
    parts = []
    for e, name in zip(exponents, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{int(e)}")
    return "*".join(parts)


def render_ode(ode: OdeSystem, variable_names: list[str],
               threshold: float = 1e-10) -> str:
    """Human-readable equations, one line per state variable.

    Coefficients print with nine significant digits; terms whose
    magnitude is below threshold are omitted, an empty right-hand side
    becomes "0", and term order follows the basis, so equal systems render
    identically.
    """
    names = list(variable_names)
    if len(names) != ode.dim:
        raise ValueError(f"need {ode.dim} variable names, got {len(names)}")
    lines = []
    for j, name in enumerate(names):
        terms = []
        for i in range(ode.basis.size):
            c = ode.A[i, j]
            if abs(c) < threshold:
                continue
            mono = _format_monomial(ode.basis.exponents[i], names)
            coeff = f"{abs(c):.9g}"
            body = f"{coeff}*{mono}" if mono else coeff
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"{'+' if c > 0 else '-'} {body}")
        rhs = " ".join(terms) if terms else "0"
        lines.append(f"d{name}/dτ = {rhs}")
    return "\n".join(lines)
