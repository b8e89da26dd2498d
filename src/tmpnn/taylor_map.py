"""Coefficient storage of the shared-weight polynomial map.

One map application sends a state z to W0 + W1 z + W2 z^[2] + ... + Wk z^[k],
with the Kronecker powers represented in the reduced monomial basis.  All
coefficients live in a single (basis.size, dim) matrix whose rows follow the
basis ordering, so column j holds every coefficient feeding output j and the
degree-q row block is the classical W_q.

Internally the matrix is stored as its deviation from the identity map
(``delta``), i.e. W equals delta plus ones at the degree-1 diagonal.  The
identity map is then exactly zeros, and the conversions to and from the
equivalent ODE coefficient matrix (see odeview) are single multiplications,
which keeps those round trips bit-exact.  The literal matrix is available
as the ``W`` property.  The map is applied, always to a batch of states,
by the model's forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import MonomialBasis, build_basis
from .errors import _check_finite


def _degree1_indices(basis: MonomialBasis) -> np.ndarray:
    """Row indices of the degree-1 monomials z_0, ..., z_{d-1} in order."""
    block = basis.degree_slice(1)
    rows = np.arange(block.start, block.stop)
    # degree-1 block enumerates variables in ascending index order
    return rows


@dataclass(eq=False)
class TaylorMapWeights:
    """Coefficients of one order-k polynomial map on a dim-dimensional state.

    Attributes:
        basis: monomial basis fixing dim, order, and the row layout.
        delta: (basis.size, dim) float array, the stored parameters.
            delta is W minus the identity map's matrix, so identity
            initialization is all zeros.
    """

    basis: MonomialBasis
    delta: np.ndarray

    def __post_init__(self):
        self.delta = _check_finite("delta", self.delta,
                                   (self.basis.size, self.basis.dim))

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def order(self) -> int:
        return self.basis.order

    @property
    def W(self) -> np.ndarray:
        """The literal coefficient matrix (a fresh array each call)."""
        w = self.delta.copy()
        rows = _degree1_indices(self.basis)
        w[rows, np.arange(self.basis.dim)] += 1.0
        return w

    @classmethod
    def from_matrix(cls, basis: MonomialBasis, w: np.ndarray) -> "TaylorMapWeights":
        """Build from a literal coefficient matrix W."""
        delta = _check_finite("w", w, (basis.size, basis.dim)).copy()
        rows = _degree1_indices(basis)
        delta[rows, np.arange(basis.dim)] -= 1.0
        return cls(basis=basis, delta=delta)


def identity_weights(dim: int, order: int) -> TaylorMapWeights:
    """The identity map: W1 = I, all other coefficients zero.

    Applying it returns the input unchanged, so an untrained model built on
    it predicts the initial target slots verbatim.
    """
    basis = build_basis(dim, order)
    return TaylorMapWeights(basis=basis, delta=np.zeros((basis.size, dim)))
