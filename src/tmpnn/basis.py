"""Reduced monomial basis for Kronecker powers of a state vector.

A state vector z of dimension d has Kronecker powers z, z^[2], ..., z^[k]
whose entries repeat: z1*z2 and z2*z1 are the same number.  This module
enumerates each distinct monomial of total degree <= k exactly once, in a
fixed deterministic order, evaluates the monomials at a batch of states,
and tabulates each monomial divided by each of its variables, which is all
the derivative of the basis needs: d(z^a)/dz_j = a_j z^(a - e_j).
Everything downstream (weight layout, serialization, the ODE view)
depends on this ordering, so it is part of the package contract:

    degree ascending; within a degree, descending lexicographic order on
    the exponent vector, i.e. higher exponents on earlier variables first.

For d=2, k=2 the order is [1, z1, z2, z1^2, z1*z2, z2^2].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All distinct monomials of degree <= order in dim variables.

    Attributes:
        dim: number of state variables d (>= 1).
        order: maximal total degree k (>= 1).
        exponents: (size, dim) int array; row i is the exponent vector of
            monomial i.  Row 0 is the all-zeros constant term.
        degrees: (size,) int array of total degrees, non-decreasing.
        parent: (size,) int array; for a non-constant monomial i,
            parent[i] == lowered[i, parent_var[i]].  Lets monomials be
            built degree by degree from one product each.
        parent_var: (size,) int array, the first variable of monomial i;
            0 for the constant, whose parent is itself.
        lowered: (size, dim) int array; lowered[i, j] is the index of
            monomial i divided by z_j where exponents[i, j] > 0, and -1
            elsewhere, so d(monomial i)/dz_j = exponents[i, j] * monomial
            lowered[i, j].  The derivative of the whole basis is thus a
            basis of one degree less, indexed by this one table.
    """

    dim: int
    order: int
    exponents: np.ndarray
    degrees: np.ndarray
    parent: np.ndarray
    parent_var: np.ndarray
    lowered: np.ndarray

    @property
    def size(self) -> int:
        """Number of monomials, sum over q <= order of C(dim-1+q, dim-1)."""
        return self.exponents.shape[0]

    def degree_slice(self, q: int) -> slice:
        """Contiguous index range of the degree-q monomials."""
        if not 0 <= q <= self.order:
            raise ValueError(f"degree {q} outside [0, {self.order}]")
        start, stop = self.degrees.searchsorted((q, q + 1)).tolist()
        return slice(start, stop)

    @property
    def jac_rows(self) -> tuple[np.ndarray, ...]:
        """Per variable j, the monomials that contain z_j (derived from
        exponents; the benchmark's tracer counts them)."""
        return tuple(np.nonzero(self.exponents[:, j])[0]
                     for j in range(self.dim))


@lru_cache(maxsize=None)
def build_basis(dim: int, order: int) -> MonomialBasis:
    """Enumerate the reduced monomial basis for (dim, order).

    Args:
        dim: state dimension, positive integer.
        order: maximal total degree, positive integer.

    Returns:
        A MonomialBasis.  Calls with equal arguments return the same
        (immutable) object.

    Raises:
        ValueError: if dim < 1 or order < 1.

    Example:
        >>> build_basis(2, 2).exponents.tolist()
        [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")

    combos: list[tuple[int, ...]] = []
    for q in range(order + 1):
        combos.extend(itertools.combinations_with_replacement(range(dim), q))

    size = len(combos)
    exponents = np.zeros((size, dim), dtype=np.int64)
    for i, combo in enumerate(combos):
        for var in combo:
            exponents[i, var] += 1
    degrees = exponents.sum(axis=1)

    index_of = {combo: i for i, combo in enumerate(combos)}
    lowered = np.full((size, dim), -1, dtype=np.int64)
    for i, combo in enumerate(combos):
        # a combo lists z_var once per power, so drop one occurrence
        for k, var in enumerate(combo):
            lowered[i, var] = index_of[combo[:k] + combo[k + 1:]]

    # combos are ascending, so combo[0] is the first variable present
    parent_var = np.array([0] + [c[0] for c in combos[1:]], dtype=np.int64)
    parent = lowered[np.arange(size), parent_var]
    parent[0] = 0

    for arr in (exponents, degrees, parent, parent_var, lowered):
        arr.setflags(write=False)
    return MonomialBasis(dim=int(dim), order=int(order), exponents=exponents,
                         degrees=degrees, parent=parent, parent_var=parent_var,
                         lowered=lowered)


def eval_monomials_batch(basis: MonomialBasis, Z: np.ndarray) -> np.ndarray:
    """Evaluate all monomials at each row of Z.

    Args:
        basis: the monomial basis.
        Z: (N, dim) array of state vectors.  Nothing is checked here:
            the model validates its inputs where they enter, and overflow
            between layers surfaces as a DivergenceError there.

    Returns:
        (N, size) array; column i holds monomial i at every row.
    """
    n = Z.shape[0]
    phi = np.empty((n, basis.size), dtype=np.float64)
    phi[:, 0] = 1.0
    for q in range(1, basis.order + 1):
        block = basis.degree_slice(q)
        phi[:, block] = phi[:, basis.parent[block]] * Z[:, basis.parent_var[block]]
    return phi
