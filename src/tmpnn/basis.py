"""Reduced monomial basis for Kronecker powers of a state vector.

A state vector z of dimension d has Kronecker powers z, z^[2], ..., z^[k]
whose entries repeat: z1*z2 and z2*z1 are the same number.  This module
enumerates each distinct monomial of total degree <= k exactly once, in a
fixed deterministic order, evaluates the monomials at a batch of states,
and tabulates each monomial of degree below k times each variable, which
is all the derivative of the basis needs: d(z^a)/dz_j = a_j z^(a - e_j),
so z^(b + e_j) is the one monomial whose derivative along z_j is a
multiple of z^b, namely b_j + 1 times it.
Everything downstream (weight layout, serialization, the ODE view)
depends on this ordering, so it is part of the package contract:

    degree ascending; within a degree, descending lexicographic order on
    the exponent vector, i.e. higher exponents on earlier variables first.

For d=2, k=2 the order is [1, z1, z2, z1^2, z1*z2, z2^2].

Evaluation is feature-major: the monomials are built as (size, N) rows.
One gather puts each monomial's first variable in its row, which
completes degree 1; each higher monomial is then that row times its
parent, the monomial of one degree less divided by that variable.  The
caller gets the (N, size) transposed view.  Two kernels do the products:

- below run_rows rows, each degree is one product of its contiguous rows
  with a gathered copy of their parents (phi.take(parent));
- from run_rows rows on, each run (below) is one product in place of its
  contiguous rows with its contiguous parent rows, so no copy is made.

The order makes the runs: within degree q the monomials whose first
variable is j are contiguous, and their parents, the degree-(q-1)
monomials whose variables are all >= j, are contiguous too and in the
same order.  Both kernels multiply the same two numbers for each
monomial, so the values are the same to the last bit whichever ran.
run_rows is where each run's product covers _RUN_ENTRIES entries on
average, enough that skipping the copy pays for the extra calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _check_int

# Entries an in-place run product must cover, on average, before the run
# kernel is used: each product costs about 0.5 us a call, about what a
# copy of 2048 float64 parent entries costs.
_RUN_ENTRIES = 2048


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All distinct monomials of degree <= order in dim variables.

    Attributes:
        dim: number of state variables d (>= 1).
        order: maximal total degree k (>= 1).
        exponents: (size, dim) int array; row i is the exponent vector of
            monomial i.  Row 0 is the all-zeros constant term.
        degrees: (size,) int array of total degrees, non-decreasing.
        parent: (size,) int array; for a non-constant monomial i, the
            index of monomial i divided by z_{parent_var[i]}.  Lets
            monomials be built degree by degree from one product each.
        parent_var: (size,) int array, the first variable of monomial i;
            0 for the constant, whose parent is itself.
        raised: (low * dim,) int array, low = degree_slice(order).start;
            raised[l * dim + j] is the index of monomial l times z_j, the
            one monomial whose derivative along z_j is a multiple of
            monomial l: exponents[l, j] + 1 times it.  So the derivative
            of the basis, a basis of one degree less, is this one table.
        degree_blocks: per degree q = 0..order, the read-only pair
            (degree_slice(q), parent[block]) that evaluation reads, so
            no call re-slices the tables.
        jac_rows: per variable j, the read-only array of the monomials
            that contain z_j (the benchmark's tracer counts them).
        runs: (dst, src) slice pairs covering the monomials of degree 2
            and up, degrees ascending: the monomials in dst share their
            first variable, and src holds their parents in the same
            order, so parent[dst] is the range of src.
        run_rows: the fewest rows evaluated with the runs,
            ceil(_RUN_ENTRIES * len(runs) / (size - 1 - dim)); 0 for
            order 1, which has no runs.
    """

    dim: int
    order: int
    exponents: np.ndarray
    degrees: np.ndarray
    parent: np.ndarray
    parent_var: np.ndarray
    raised: np.ndarray
    degree_blocks: tuple[tuple[slice, np.ndarray], ...]
    jac_rows: tuple[np.ndarray, ...]
    runs: tuple[tuple[slice, slice], ...]
    run_rows: int

    @property
    def size(self) -> int:
        """Number of monomials, sum over q <= order of C(dim-1+q, dim-1)."""
        return self.exponents.shape[0]

    def degree_slice(self, q: int) -> slice:
        """Contiguous index range of the degree-q monomials."""
        if not 0 <= q <= self.order:
            raise ValueError(f"degree {q} outside [0, {self.order}]")
        return self.degree_blocks[q][0]


def build_basis(dim: int, order: int) -> MonomialBasis:
    """Enumerate the reduced monomial basis for (dim, order).

    Args:
        dim: state dimension, positive integer.
        order: maximal total degree, positive integer.

    Returns:
        A MonomialBasis.  Calls with equal arguments return the same
        (immutable) object.

    Raises:
        ValueError: if dim or order is not an int >= 1 (see errors).

    Example:
        >>> build_basis(2, 2).exponents.tolist()
        [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    """
    # checked before the cache, which would answer 3.0 for a cached 3
    _check_int("dim", dim, 1)
    _check_int("order", order, 1)
    return _build_basis(int(dim), int(order))


@lru_cache(maxsize=None)
def _build_basis(dim: int, order: int) -> MonomialBasis:
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
    # combos are ascending, so c[0] is the first variable present and
    # c[1:] the monomial divided by it
    parent_var = np.array([0] + [c[0] for c in combos[1:]], dtype=np.int64)
    parent = np.array([0] + [index_of[c[1:]] for c in combos[1:]],
                      dtype=np.int64)
    low = int(degrees.searchsorted(order))
    raised = np.array([index_of[tuple(sorted(c + (j,)))]
                       for c in combos[:low] for j in range(dim)],
                      dtype=np.int64)

    rows, var = np.nonzero(exponents)
    jac_rows = tuple(rows[var == j] for j in range(dim))
    for arr in (exponents, degrees, parent, parent_var, raised, *jac_rows):
        arr.setflags(write=False)
    # slices of read-only tables are read-only views
    bounds = degrees.searchsorted(np.arange(order + 2)).tolist()
    degree_blocks = tuple(
        (block, parent[block])
        for block in (slice(a, b) for a, b in zip(bounds, bounds[1:])))
    # a run: the monomials of one degree >= 2 with one first variable
    runs = []
    for _, group in itertools.groupby(range(dim + 1, size),
                                      key=lambda i: (len(combos[i]),
                                                     combos[i][0])):
        dst = list(group)
        src = index_of[combos[dst[0]][1:]]
        runs.append((slice(dst[0], dst[-1] + 1),
                     slice(src, src + len(dst))))
    run_rows = -(-_RUN_ENTRIES * len(runs) // max(1, size - 1 - dim))
    return MonomialBasis(dim=dim, order=order, exponents=exponents,
                         degrees=degrees, parent=parent, parent_var=parent_var,
                         raised=raised, degree_blocks=degree_blocks,
                         jac_rows=jac_rows, runs=tuple(runs),
                         run_rows=run_rows)


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
        each monomial is one contiguous row there.  Below
        basis.run_rows rows each degree is one product with a gathered
        copy of its parents; from run_rows on each run is one product in
        place with its parent rows, which allocates nothing.  Both
        multiply the same two numbers per entry, so the values depend
        neither on the kernel nor on out.
    """
    phi = np.empty((basis.size, Z.shape[0])) if out is None else out
    # ndarray methods, not np.take or fancy indexing: the model and the
    # ODE oracle call this once per row in loops, where numpy's Python
    # wrappers cost more than the arithmetic.  Indices are valid by
    # construction; "clip" skips numpy's buffering
    Z.T.take(basis.parent_var, 0, phi, "clip")
    phi[0].fill(1.0)
    # a degree-1 monomial is its variable times the constant 1, exactly;
    # parents have lower degree, so each product reads finished rows
    if Z.shape[0] < basis.run_rows:
        for block, parent in basis.degree_blocks[2:]:
            rows = phi[block]
            np.multiply(rows, phi.take(parent, 0), out=rows)
    else:
        for dst, src in basis.runs:
            rows = phi[dst]
            rows *= phi[src]
    return phi.T
