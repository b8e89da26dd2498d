"""Monomial basis enumeration, batch evaluation and the derivative table,
against brute-force oracles."""

import itertools
import tracemalloc
from math import ceil, comb

import numpy as np
import pytest

import tmpnn.model
from tmpnn import TmpnnModel, build_basis, predict
from tmpnn.basis import eval_monomials_batch


def eval_monomials(basis, z):
    """The monomial vector at one state, as a 1-row batch."""
    return eval_monomials_batch(basis, np.asarray(z, dtype=float)[None, :])[0]


def monomial_jacobian(basis, z):
    """(size, dim) derivatives of the monomials at z from plain powers,
    d(z^a)/dz_j = a_j z^(a - e_j), reading no derivative table."""
    z = np.asarray(z, dtype=float)
    a = basis.exponents
    jac = np.empty((basis.size, basis.dim))
    for j in range(basis.dim):
        # a_j = 0 zeroes the column, so clip the power there at 0
        powers = np.maximum(a - np.eye(basis.dim, dtype=int)[j], 0)
        jac[:, j] = a[:, j] * np.prod(z ** powers, axis=1)
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


@pytest.mark.parametrize("cache_first", [False, True])
def test_non_integer_arguments_rejected_whatever_is_cached(cache_first):
    # 3.0 == 3 and True == 1 hash alike, so a cache checked first would
    # answer them with the basis of the integer
    if cache_first:
        build_basis(3, 3)
        build_basis(1, 2)
        build_basis(2, 1)
    for dim, order in [(3.0, 3), (3, 3.0), (True, 2), (2, True),
                       ("3", 3), (None, 2)]:
        with pytest.raises(ValueError):
            build_basis(dim, order)
    assert build_basis(np.int64(3), 3) is build_basis(3, 3)
    assert type(build_basis(np.int64(3), 3).dim) is int


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


def test_derivative_tables_are_read_only():
    for dim, order in [(1, 1), (2, 2), (3, 4), (6, 3)]:
        basis = build_basis(dim, order)
        low = basis.degree_slice(order).start
        assert basis.raised.shape == (low * dim,)
        assert isinstance(basis.jac_rows, tuple)
        assert len(basis.jac_rows) == dim
        for table in (basis.raised, basis.parent, *basis.jac_rows):
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


def test_runs_cover_the_higher_degrees_with_contiguous_parents():
    # the monomials of one degree that share a first variable are
    # contiguous, and so are their parents, in the same order
    for dim in range(1, 9):
        for order in range(1, 6):
            basis = build_basis(dim, order)
            covered = []
            for dst, src in basis.runs:
                assert dst.stop - dst.start == src.stop - src.start > 0
                covered.extend(range(dst.start, dst.stop))
                np.testing.assert_array_equal(basis.parent[dst],
                                              np.arange(src.start, src.stop))
                assert len(set(basis.parent_var[dst].tolist())) == 1
            # each monomial of degree >= 2 in exactly one run, and the
            # runs in index order, so degrees ascending
            assert covered == list(range(dim + 1, basis.size))
            higher = basis.size - 1 - dim
            assert basis.run_rows == (
                ceil(2048 * len(basis.runs) / higher) if higher else 0)
            if order == 1:
                assert basis.runs == () and basis.run_rows == 0
    assert len(build_basis(6, 3).runs) == 12
    assert [build_basis(d, k).run_rows
            for d, k in [(6, 3), (11, 3), (6, 4), (3, 5), (2, 2), (1, 3)]
            ] == [320, 128, 182, 473, 1366, 2048]


@pytest.mark.parametrize("dim, order", [(2, 2), (3, 5), (6, 3), (11, 3)])
def test_both_kernels_give_the_same_bits(dim, order):
    # run_rows + 5 rows in one call take the run kernel, the same rows in
    # slices below run_rows the gather kernel; into fresh buffers and
    # into the leading columns of wider ones
    basis = build_basis(dim, order)
    N = basis.run_rows + 5
    Z = np.random.default_rng(dim).normal(0.0, 2.0, size=(N, dim))
    step = basis.run_rows - 1
    for wider in (0, 7):
        def buffer(rows):
            return np.full((basis.size, rows + wider), np.nan)[:, :rows]
        runs = eval_monomials_batch(basis, Z, buffer(N))
        for a in range(0, N, step):
            rows = min(step, N - a)
            taken = eval_monomials_batch(basis, Z[a:a + step], buffer(rows))
            np.testing.assert_array_equal(taken, runs[a:a + step])
        np.testing.assert_array_equal(runs, eval_monomials_batch(basis, Z))


def test_the_run_kernel_allocates_nothing():
    # the gather kernel copies the parents of a degree, 0.7 MB here;
    # the states are feature-major, as the model keeps them, so the
    # gather reads them in place too
    basis = build_basis(6, 3)
    Z = np.random.default_rng(5).normal(size=(6, 1560)).T
    out = np.empty((basis.size, 1560))
    tracemalloc.start()
    try:
        eval_monomials_batch(basis, Z, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 10


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
    # against the dense exponent table: raised[l * dim + j] is monomial l
    # times z_j, so the rows of degree below order reach every nonzero
    # exponent (i, j) exactly once, from l = i / z_j
    for dim, order in [(1, 1), (1, 3), (2, 4), (4, 3), (5, 2), (6, 1)]:
        basis = build_basis(dim, order)
        exps = basis.exponents
        low = basis.degree_slice(order).start
        unit = np.eye(dim, dtype=exps.dtype)
        raised = basis.raised.reshape(low, dim)
        for j in range(dim):
            np.testing.assert_array_equal(exps[raised[:, j]],
                                          exps[:low] + unit[j])
        reached = np.zeros_like(exps)
        np.add.at(reached, (basis.raised, np.tile(np.arange(dim), low)), 1)
        np.testing.assert_array_equal(reached, exps > 0)
        for j in range(dim):
            np.testing.assert_array_equal(basis.jac_rows[j],
                                          np.nonzero(exps[:, j])[0])
        np.testing.assert_array_equal(
            exps[basis.parent[1:]], exps[1:] - unit[basis.parent_var[1:]])
        assert basis.parent[0] == 0
