"""Structured errors raised by the training and inference paths."""

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
            (1-based: step t means the t-th application), or None.
        row: index of the first offending sample in a batched call, or None.
        state: the layer input (an array) that led to the non-finite output,
            or None.
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
