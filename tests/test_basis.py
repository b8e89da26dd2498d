"""Monomial basis enumeration, batch evaluation and the derivative table,
against brute-force oracles."""

import itertools
from math import comb

import numpy as np
import pytest

import tmpnn.model
from tmpnn import TmpnnModel, build_basis, predict
from tmpnn.basis import eval_monomials_batch


def eval_monomials(basis, z):
    """The monomial vector at one state, as a 1-row batch."""
    return eval_monomials_batch(basis, np.asarray(z, dtype=float)[None, :])[0]


def monomial_jacobian(basis, z):
    """(size, dim) derivatives of the monomials at z, assembled from the
    table backpropagation uses: exponents[i, j] * phi[lowered[i, j]]."""
    phi = eval_monomials(basis, z)
    rows, var = np.nonzero(basis.exponents)
    jac = np.zeros((basis.size, basis.dim))
    jac[rows, var] = basis.exponents[rows, var] * phi[basis.lowered[rows, var]]
    return jac


def brute_force_exponents(dim, order):
    """Independent enumeration: every exponent tuple with sum <= order."""
    out = set()
    for combo in itertools.product(range(order + 1), repeat=dim):
        if sum(combo) <= order:
            out.add(combo)
    return out


def test_dim2_order2_exact_list():
    basis = build_basis(2, 2)
    assert basis.exponents.tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_dim2_order5_size():
    # 1 + 2 + 3 + 4 + 5 + 6
    assert build_basis(2, 5).size == 21


def test_dim3_order3_size_and_contents():
    basis = build_basis(3, 3)
    assert basis.size == 20
    expected = brute_force_exponents(3, 3)
    got = {tuple(row) for row in basis.exponents.tolist()}
    assert got == expected


def test_size_matches_brute_force_and_formula():
    for dim in range(1, 7):
        for order in range(1, 6):
            basis = build_basis(dim, order)
            assert basis.size == len(brute_force_exponents(dim, order))
            assert basis.size == sum(comb(dim - 1 + q, dim - 1)
                                     for q in range(order + 1))


def test_ordering_graded_then_descending_lex():
    for dim, order in [(2, 3), (3, 3), (4, 2), (5, 4)]:
        basis = build_basis(dim, order)
        rows = basis.exponents.tolist()
        assert len({tuple(r) for r in rows}) == len(rows)
        degrees = [sum(r) for r in rows]
        assert degrees == sorted(degrees)
        for a, b in zip(rows, rows[1:]):
            if sum(a) == sum(b):
                assert a > b  # higher exponent on earlier variables first


def test_determinism_and_caching():
    a = build_basis(3, 2)
    b = build_basis(3, 2)
    assert a is b
    np.testing.assert_array_equal(a.exponents, b.exponents)


def test_invalid_arguments_rejected():
    for dim, order in [(0, 2), (2, 0), (-1, 1), (1, -3)]:
        with pytest.raises(ValueError):
            build_basis(dim, order)


def test_degree_slice_partitions_rows():
    basis = build_basis(3, 4)
    covered = []
    for q in range(5):
        block = basis.degree_slice(q)
        assert (basis.degrees[block] == q).all()
        covered.extend(range(block.start, block.stop))
    assert covered == list(range(basis.size))


def test_degree_blocks_are_read_only_views_of_the_tables():
    for dim, order in [(1, 1), (2, 2), (3, 4), (6, 3)]:
        basis = build_basis(dim, order)
        assert len(basis.degree_blocks) == order + 1
        for q, (block, parent) in enumerate(basis.degree_blocks):
            assert block == basis.degree_slice(q)
            start, stop = basis.degrees.searchsorted((q, q + 1))
            assert (block.start, block.stop) == (start, stop)
            np.testing.assert_array_equal(parent, basis.parent[block])
            with pytest.raises(ValueError):
                parent[0] = 0


def test_derivative_terms_are_read_only_and_match_the_tables():
    for dim, order in [(1, 1), (2, 2), (3, 4), (6, 3)]:
        basis = build_basis(dim, order)
        rows, var = np.nonzero(basis.exponents)
        expected = (rows, var, basis.lowered[rows, var],
                    basis.exponents[rows, var])
        assert len(basis.deriv_terms) == 4
        for got, want in zip(basis.deriv_terms, expected):
            np.testing.assert_array_equal(got, want)
        assert isinstance(basis.jac_rows, tuple)
        assert len(basis.jac_rows) == dim
        for table in (*basis.deriv_terms, *basis.jac_rows):
            with pytest.raises(ValueError):
                table[0] = 0


def test_eval_hand_values():
    basis = build_basis(2, 2)
    np.testing.assert_array_equal(eval_monomials(basis, [2.0, 3.0]),
                                  [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    np.testing.assert_array_equal(eval_monomials(basis, [0.0, 0.0]),
                                  [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(eval_monomials(build_basis(3, 3), np.ones(3)),
                                  np.ones(20))


def test_eval_matches_exponent_products():
    rng = np.random.default_rng(7)
    for dim, order in [(2, 4), (3, 3), (5, 2)]:
        basis = build_basis(dim, order)
        for _ in range(10):
            z = rng.normal(size=dim)
            expected = np.prod(z ** basis.exponents, axis=1)
            np.testing.assert_allclose(eval_monomials(basis, z), expected,
                                       rtol=1e-12)


def test_eval_agrees_with_literal_kronecker_powers():
    # every entry of the literal power z^[q] must equal the reduced entry
    # with the same exponent signature
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        for order in (1, 2, 3):
            basis = build_basis(dim, order)
            index_of = {tuple(r): i for i, r in enumerate(basis.exponents.tolist())}
            z = rng.normal(size=dim)
            phi = eval_monomials(basis, z)
            for q in range(1, order + 1):
                power = z.copy()
                signatures = [[i] for i in range(dim)]
                for _ in range(q - 1):
                    power = np.kron(power, z)
                    signatures = [s + [i] for s in signatures for i in range(dim)]
                for value, sig in zip(power, signatures):
                    exp = [0] * dim
                    for i in sig:
                        exp[i] += 1
                    np.testing.assert_allclose(value, phi[index_of[tuple(exp)]],
                                               rtol=1e-12)


def test_eval_into_a_buffer_returns_a_view_of_it_bit_for_bit():
    rng = np.random.default_rng(17)
    for dim, order in [(1, 1), (2, 2), (6, 3), (14, 2)]:
        basis = build_basis(dim, order)
        for N in (1, 2, 781):
            Z = rng.normal(0.0, 2.0, size=(N, dim))
            want = eval_monomials_batch(basis, Z)
            # an exact buffer, and the leading columns of a wider one
            for buf in (np.full((basis.size, N), np.nan),
                        np.full((basis.size, N + 5), np.nan)[:, :N]):
                got = eval_monomials_batch(basis, Z, out=buf)
                assert got.shape == (N, basis.size)
                assert np.shares_memory(got, buf)
                np.testing.assert_array_equal(got, buf.T)
                assert got.tobytes() == want.tobytes()


def test_eval_rejects_bad_input(monkeypatch):
    # monomial evaluation checks nothing: a bad state is rejected where it
    # enters the model, before any monomial is evaluated
    calls = []
    monkeypatch.setattr(tmpnn.model, "eval_monomials_batch",
                        lambda *args: calls.append(args))
    model = TmpnnModel.create(2, 1, order=2, steps=1, standardize=False)
    for X in ([[1.0, np.nan]], [[np.inf, 0.0]], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError):
            predict(model, X)
    assert not calls


def test_jacobian_hand_rows():
    basis = build_basis(2, 2)
    jac = monomial_jacobian(basis, [2.0, 3.0])
    rows = {tuple(r): i for i, r in enumerate(basis.exponents.tolist())}
    np.testing.assert_array_equal(jac[rows[(0, 0)]], [0.0, 0.0])
    np.testing.assert_array_equal(jac[rows[(1, 1)]], [3.0, 2.0])
    np.testing.assert_array_equal(jac[rows[(2, 0)]], [4.0, 0.0])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        order = int(rng.integers(1, 5))
        basis = build_basis(dim, order)
        z = rng.uniform(-1.5, 1.5, size=dim)
        jac = monomial_jacobian(basis, z)
        for j in range(dim):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd = (eval_monomials(basis, zp) - eval_monomials(basis, zm)) / (2 * h)
            denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(jac[:, j])))
            assert np.max(np.abs(jac[:, j] - fd) / denom) < 1e-5


def test_jacobian_sparse_tables_match_dense():
    # against the dense exponent table: lowered[i, j] is monomial i divided
    # by z_j, and the -1 sentinel sits exactly where z_j does not divide it
    for dim, order in [(1, 3), (2, 4), (4, 3), (5, 2)]:
        basis = build_basis(dim, order)
        assert basis.lowered.shape == (basis.size, dim)
        np.testing.assert_array_equal(basis.lowered == -1,
                                      basis.exponents == 0)
        rows, var = np.nonzero(basis.exponents)
        expected = basis.exponents[rows].copy()
        expected[np.arange(len(rows)), var] -= 1
        np.testing.assert_array_equal(
            basis.exponents[basis.lowered[rows, var]], expected)
        for j in range(dim):
            np.testing.assert_array_equal(basis.jac_rows[j],
                                          np.nonzero(basis.exponents[:, j])[0])
        np.testing.assert_array_equal(
            basis.parent[1:],
            basis.lowered[np.arange(1, basis.size), basis.parent_var[1:]])
