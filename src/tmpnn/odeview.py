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

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import MonomialBasis, eval_monomials_batch
from .errors import DivergenceError, _check_finite, _check_int, _check_real
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
        self.A = _check_finite("A", self.A, (self.basis.size, self.basis.dim))

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def order(self) -> int:
        return self.basis.order


def extract_ode(model: TmpnnModel) -> OdeSystem:
    """The polynomial system whose Euler discretization is the model.

    A_q = p W_q for q != 1 and A1 = p (W1 - I); in the stored
    identity-deviation form both are A = p * delta.  The system describes
    the model's internal state, so when feature standardization is on, the
    feature coordinates are the scaled ones.  A weight that p * delta
    overflows is a ValueError naming steps * delta.
    """
    p = float(model.steps)
    with np.errstate(over="ignore"):
        A = _check_finite("steps * delta", p * model.map.delta)
    return OdeSystem(basis=model.basis, A=A,
                     _source=(model.map.delta.copy(), model.steps))


def rebuild_map(ode: OdeSystem, steps: int) -> TaylorMapWeights:
    """The map whose `steps`-step Euler scheme integrates the system.

    W_q = A_q / steps for q != 1 and W1 = I + A1 / steps.  At the source
    map's step count times a power of two, its weights are divided exactly
    (at the same count, this inverts extract_ode bit for bit).  Elsewhere
    an entry is A / steps or its neighbour, whichever has the product with
    steps that rounds nearer A (49 * (1 / 49) is 1 - 2**-53), so steps *
    result is A wherever a preimage exists, and finite next to float max.
    """
    _check_int("steps", steps, 1)
    if ode._source is not None:
        delta, source_steps = ode._source
        ratio = steps // source_steps if steps % source_steps == 0 else 0
        if ratio and (ratio & (ratio - 1)) == 0:
            return TaylorMapWeights(basis=ode.basis, delta=delta / ratio)
    A, delta = ode.A, ode.A / steps
    with np.errstate(over="ignore"):
        other = np.nextafter(delta, np.where(steps * delta < A, np.inf, -np.inf))
        nearer = np.abs(steps * other - A) < np.abs(steps * delta - A)
    delta = np.where(nearer, other, delta)
    return TaylorMapWeights(basis=ode.basis, delta=delta)


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
    _check_int("new_steps", new_steps, model.steps + 1)
    return replace(model, steps=new_steps,
                   map=rebuild_map(extract_ode(model), new_steps),
                   init_state=model.init_state.copy())


def rescale_time(model: TmpnnModel, tau_bar: float) -> TmpnnModel:
    """Change the integration horizon from 1 to tau_bar without retraining.

    W_q scales by tau_bar for q != 1 and W1 maps to (W1 - I) tau_bar + I;
    in deviation form that is one multiplication.  tau_bar = 1 returns an
    identical model; tau_bar = 0 collapses the map to the identity.  A
    tau_bar that overflows a weight is a ValueError naming it.
    """
    _check_real("tau_bar", tau_bar, 0)
    with np.errstate(over="ignore"):
        delta = _check_finite("tau_bar * delta", model.map.delta * tau_bar)
    return replace(model, map=TaylorMapWeights(basis=model.basis, delta=delta),
                   init_state=model.init_state.copy())


def integrate_reference(ode: OdeSystem, z0, n_steps: int = 1000,
                        t_end: float = 1.0) -> np.ndarray:
    """Integrate the system with fixed-step classical Runge-Kutta.

    A high-accuracy oracle for comparing the model's Euler trajectory
    against the continuous system; never used in training.

    Args:
        ode: the polynomial system.
        z0: a (dim,) start state, or (N, dim) start states integrated
            together as the rows of one batch; rows do not interact.
        n_steps: number of RK4 steps (>= 1).
        t_end: integration horizon (default the unit interval).

    Returns:
        The state at tau = t_end, in the shape of z0.

    Raises:
        DivergenceError: if a trajectory becomes non-finite.  It names
            the first step at which any row does, the first such row
            (None for a (dim,) start state) and that row's state entering
            the step.
    """
    _check_int("n_steps", n_steps, 1)
    _check_real("t_end", t_end)
    start = _check_finite("z0", z0)
    if start.ndim not in (1, 2) or start.shape[-1] != ode.dim:
        raise ValueError(f"z0 must have shape ({ode.dim},) or (N, {ode.dim})")
    z = np.array(start.reshape(-1, ode.dim))
    # one workspace per call: the stages' monomials side by side, the
    # stage state and the next state (C-contiguous, as ndarray.dot's out
    # must be), the update table and the zeros the finiteness test
    # multiplies the state by; np.empty, not the Python-level empty_like
    basis, size = ode.basis, ode.basis.size
    phis = np.empty((4 * size, z.shape[0]))
    first, *rest = [phis[i * size:(i + 1) * size] for i in range(4)]
    stage = np.empty(z.shape)
    new = np.empty(z.shape)
    update = np.empty((4 * size, ode.dim))
    zeros = np.zeros(z.size)
    # overflow, of the coefficient tables too, surfaces as a structured
    # DivergenceError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        h = t_end / n_steps
        A = ode.A
        # RK4's weights folded into the coefficients: stage i + 1 starts at
        # z + phi_i @ (c_i h A), and the step adds the four stages'
        # monomials times [h/6 A; h/3 A; h/3 A; h/6 A] in one product
        stages = tuple(zip(((0.5 * h) * A, (0.5 * h) * A, h * A), rest))
        for i, c in enumerate((h / 6.0, h / 3.0, h / 3.0, h / 6.0)):
            np.multiply(A, c, out=update[i * size:(i + 1) * size])
        for step in range(n_steps):
            phi = eval_monomials_batch(basis, z, first)
            for offset, block in stages:
                phi.dot(offset, out=stage)
                np.add(stage, z, out=stage)
                phi = eval_monomials_batch(basis, stage, block)
            phis.T.dot(update, out=new)
            np.add(new, z, out=new)
            # one product tests every entry: a finite x * 0 is +-0, while
            # inf * 0 and nan * 0 are nan, so the sum is 0 exactly when
            # the state is finite, and it cannot overflow
            if not math.isfinite(new.reshape(-1).dot(zeros)):
                row = int(np.argmin(np.isfinite(new).all(axis=1)))
                named = row if start.ndim == 2 else None
                raise DivergenceError(
                    f"reference integration diverged at step {step + 1}"
                    + ("" if named is None else f" (row {row})"),
                    step=step + 1, row=named, state=z[row].copy())
            z, new = new, z
    return z if start.ndim == 2 else z[0]


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
    _check_real("threshold", threshold, 0)
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
