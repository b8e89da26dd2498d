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

Evaluation is feature-major: the monomials are built as (size, N) rows.
One gather puts each monomial's first variable in its row, which
completes degree 1, and each higher degree is then one in-place product
of contiguous rows with the parent monomials of one degree less; the
caller gets the (N, size) transposed view.
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
        degree_blocks: per degree q = 0..order, the read-only pair
            (degree_slice(q), parent[block]) that evaluation reads, so
            no call re-slices the tables.
        deriv_terms: the nonzero exponents in row-major order as four
            read-only arrays (i, j, lowered[i, j], exponents[i, j]): the
            terms of the basis derivative the backward pass scatters.
        jac_rows: per variable j, the read-only array of the monomials
            that contain z_j (the benchmark's tracer counts them).
    """

    dim: int
    order: int
    exponents: np.ndarray
    degrees: np.ndarray
    parent: np.ndarray
    parent_var: np.ndarray
    lowered: np.ndarray
    degree_blocks: tuple[tuple[slice, np.ndarray], ...]
    deriv_terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    jac_rows: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        """Number of monomials, sum over q <= order of C(dim-1+q, dim-1)."""
        return self.exponents.shape[0]

    def degree_slice(self, q: int) -> slice:
        """Contiguous index range of the degree-q monomials."""
        if not 0 <= q <= self.order:
            raise ValueError(f"degree {q} outside [0, {self.order}]")
        return self.degree_blocks[q][0]


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

    rows, var = np.nonzero(exponents)
    deriv_terms = (rows, var, lowered[rows, var], exponents[rows, var])
    jac_rows = tuple(rows[var == j] for j in range(dim))
    for arr in (exponents, degrees, parent, parent_var, lowered,
                *deriv_terms, *jac_rows):
        arr.setflags(write=False)
    # slices of read-only tables are read-only views
    bounds = degrees.searchsorted(np.arange(order + 2)).tolist()
    degree_blocks = tuple(
        (block, parent[block])
        for block in (slice(a, b) for a, b in zip(bounds, bounds[1:])))
    return MonomialBasis(dim=int(dim), order=int(order), exponents=exponents,
                         degrees=degrees, parent=parent, parent_var=parent_var,
                         lowered=lowered, degree_blocks=degree_blocks,
                         deriv_terms=deriv_terms, jac_rows=jac_rows)


def eval_monomials_batch(basis: MonomialBasis, Z: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate all monomials at each row of Z.

    Args:
        basis: the monomial basis.
        Z: (N, dim) array of state vectors.  Nothing is checked here:
            the model validates its inputs where they enter, and overflow
            between layers surfaces as a DivergenceError there.
        out: optional (size, N) float64 buffer to build the monomials
            in, such as a leading-column view of a wider one; a new one
            is allocated when omitted.

    Returns:
        (N, size) array; column i holds monomial i at every row.  It is
        the transposed view of the (size, N) array (out when given):
        each monomial is one contiguous row there, so each degree is one
        product.  The values do not depend on out.
    """
    phi = np.empty((basis.size, Z.shape[0])) if out is None else out
    # indices are valid by construction; "clip" skips numpy's buffering
    np.take(Z.T, basis.parent_var, axis=0, out=phi, mode="clip")
    phi[0] = 1.0
    # a degree-1 monomial is its variable times the constant 1, exactly;
    # parents have lower degree, so each product reads finished rows
    for block, parent in basis.degree_blocks[2:]:
        np.multiply(phi[block], phi[parent], out=phi[block])
    return phi.T
