"""Structured errors of the training and inference paths, and the rule
for arguments: a count is an int (a numpy integer is one, a bool is not)
with a least value, a real is finite (a bool is not one) within optional
bounds, an array has its shape and finite entries, and anything else is
a ValueError naming the argument and, in an array, the bad entry's place."""

from __future__ import annotations


class TmpnnError(Exception):
    """Base class for errors specific to this package."""


class DivergenceError(TmpnnError):
    """A forward pass, or a training step's loss or gradient, went non-finite.

    Iterated polynomial maps can overflow for badly scaled inputs or
    oversized weights.  The offending layer input is attached so callers
    can report where the trajectory blew up.

    Attributes:
        step: index of the map application that produced the bad state
            (1-based: step t means the t-th application; 0 when the start
            state itself is not finite), or None.
        row: index of the first offending sample in a batched call, or None.
        state: the layer input (an array) that led to the non-finite output
            (at step 0, the start state itself), or None.
    """

    def __init__(self, message: str, *, step: int | None = None,
                 row: int | None = None, state=None):
        super().__init__(message)
        self.step = step
        self.row = row
        self.state = state


class TrainingDivergedError(TmpnnError):
    """Every batch in a training epoch diverged.

    Raised by fit() after divergence recovery (skip the step, halve the
    learning rate) fails for an entire epoch.  Usually means the features
    need standardization or the learning rate is far too large.
    """


def _check_int(name: str, value, least: int) -> None:
    """A ValueError naming the argument unless value is a count >= least."""
    import numbers  # not at the top: the CLI imports this module at start-up
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _check_real(name: str, value, least=None, most=None,
                strict: bool = False) -> None:
    """A ValueError naming the argument unless value is a finite real
    within the bounds given (None: no bound), excluded when strict."""
    import math
    import numbers
    try:  # an int that overflows float() is not finite either
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if (isinstance(value, bool) or not finite
            or least is not None and not (value > least if strict else value >= least)
            or most is not None and not (value < most if strict else value <= most)):
        ops = ((">" if strict else ">=", least), ("<" if strict else "<=", most))
        rule = "".join(f" and {op} {b}" for op, b in ops if b is not None)
        raise ValueError(f"{name} must be finite{rule}, got {value!r}")


def _check_finite(name: str, value, shape=None):
    """value as a float64 array; a ValueError naming the argument unless
    it has the shape given (a None entry allows any length on that axis)
    and holds finite numbers only, naming the first bad entry's place (an
    int beyond the float range is not finite either; it is named by the
    argument alone, since numpy refuses the conversion as a whole)."""
    import numpy as np  # not at the top: the CLI imports this module at start-up
    try:
        value = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds an int beyond the float range") from None
    if shape is not None and (value.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, value.shape))):
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    finite = np.isfinite(value)
    # the ufunc's reduce, not ndarray.all's Python wrapper: every predict
    # runs this check
    if not np.logical_and.reduce(finite, None):
        at = tuple(np.argwhere(~finite)[0].tolist())
        place = (f"row {at[0]}, column {at[1]}" if len(at) == 2 else
                 f"entry {at[0]}" if len(at) == 1 else f"index {at}")
        raise ValueError(f"{name} holds the non-finite value {value[at]} "
                         f"at {place}")
    return value
