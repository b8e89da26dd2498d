"""Reduced monomial basis for Kronecker powers of a state vector.

A state vector z of dimension d has Kronecker powers z, z^[2], ..., z^[k]
whose entries repeat: z1*z2 and z2*z1 are the same number.  This module
enumerates each distinct monomial of total degree <= k exactly once, in a
fixed deterministic order, evaluates the monomials at a batch of states,
and tabulates the sparse derivatives that backpropagation multiplies
through.  Everything downstream (weight layout, serialization, the ODE
view) depends on this ordering, so it is part of the package contract:

    degree ascending; within a degree, descending lexicographic order on
    the exponent vector, i.e. higher exponents on earlier variables first.

For d=2, k=2 the order is [1, z1, z2, z1^2, z1*z2, z2^2].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

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
            exponents[i] == exponents[parent[i]] + e_{parent_var[i]}.
            Lets monomials be built degree by degree from one product each.
        parent_var: (size,) int array, see parent.  0 for the constant.
        jac_rows, jac_parents, jac_exps: sparse derivative tables per
            variable j: the monomials containing z_j, the same monomials
            divided by z_j, and the exponents of z_j as floats, so that
            d(monomial jac_rows[j])/dz_j = jac_exps[j] * monomial
            jac_parents[j].  Backpropagation skips the zero entries.
    """

    dim: int
    order: int
    exponents: np.ndarray
    degrees: np.ndarray
    parent: np.ndarray
    parent_var: np.ndarray
    jac_rows: tuple[np.ndarray, ...]
    jac_parents: tuple[np.ndarray, ...]
    jac_exps: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        """Number of monomials, sum over q <= order of C(dim-1+q, dim-1)."""
        return self.exponents.shape[0]

    def degree_slice(self, q: int) -> slice:
        """Contiguous index range of the degree-q monomials."""
        if not 0 <= q <= self.order:
            raise ValueError(f"degree {q} outside [0, {self.order}]")
        start = sum(comb(self.dim - 1 + j, self.dim - 1) for j in range(q))
        return slice(start, start + comb(self.dim - 1 + q, self.dim - 1))


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

    def lowered(combo: tuple[int, ...], var: int) -> int:
        """Index of the monomial divided by z_var (a combo lists z_var
        once per power)."""
        k = combo.index(var)
        return index_of[combo[:k] + combo[k + 1:]]

    # combos are ascending, so combo[0] is the first variable present
    parent = np.array([0] + [lowered(c, c[0]) for c in combos[1:]],
                      dtype=np.int64)
    parent_var = np.array([0] + [c[0] for c in combos[1:]], dtype=np.int64)

    jac_rows = []
    jac_parents = []
    jac_exps = []
    for j in range(dim):
        rows = np.nonzero(exponents[:, j])[0]
        jac_rows.append(rows)
        jac_parents.append(np.array([lowered(combos[i], j) for i in rows],
                                    dtype=np.int64))
        jac_exps.append(exponents[rows, j].astype(np.float64))

    for arr in (exponents, degrees, parent, parent_var,
                *jac_rows, *jac_parents, *jac_exps):
        arr.setflags(write=False)
    return MonomialBasis(dim=int(dim), order=int(order), exponents=exponents,
                         degrees=degrees, parent=parent, parent_var=parent_var,
                         jac_rows=tuple(jac_rows),
                         jac_parents=tuple(jac_parents), jac_exps=tuple(jac_exps))


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
