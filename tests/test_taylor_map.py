"""The shared polynomial layer: construction, one application through the
batched forward pass, and its derivatives from the basis's derivative
table."""

import numpy as np
import pytest
from test_basis import monomial_jacobian

from tmpnn import (DivergenceError, TaylorMapWeights, TmpnnModel, build_basis,
                   forward, identity_weights, predict)


def one_step_model(weights, z):
    """A 1-step model whose start state is z: every slot but the last is a
    feature, the last is the target slot, started at z[-1]."""
    z = np.asarray(z, dtype=float)
    model = TmpnnModel(n_features=weights.dim - 1, n_targets=1, n_latent=0,
                       steps=1, map=weights, init_state=z[-1:],
                       standardize=False)
    return model, z[:-1]


def apply(weights, z):
    """The map applied once to z by forward()."""
    _, trajectory = forward(*one_step_model(weights, z))
    return trajectory[1]


def layer_jacobian(weights, z):
    """d(map output)/dz = I + delta^T dphi/dz, as backpropagation chains it."""
    return np.eye(weights.dim) + weights.delta.T @ monomial_jacobian(weights.basis, z)


def test_identity_returns_input():
    w = identity_weights(2, 2)
    np.testing.assert_array_equal(apply(w, [5.0, -3.0]), [5.0, -3.0])
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.normal(size=2)
        np.testing.assert_array_equal(apply(w, z), z)


def test_identity_matrix_layout():
    w = identity_weights(3, 1)
    mat = w.W
    assert mat.shape == (4, 3)
    np.testing.assert_array_equal(mat[0], np.zeros(3))
    np.testing.assert_array_equal(mat[1:], np.eye(3))


def test_identity_coefficient_count_dim2_order5():
    w = identity_weights(2, 5)
    assert w.W.size == 42
    assert int(np.sum(w.W == 1.0)) == 2


def test_hand_evaluated_univariate_map():
    # state (x, y), basis [1, x, y, x^2, xy, y^2]: x passes through and
    # y <- 1 + 0.5 x + 0.25 x^2, so predict at x=2 reads 3
    basis = build_basis(2, 2)
    W = np.zeros((6, 2))
    W[1, 0] = 1.0
    W[[0, 1, 3], 1] = [1.0, 0.5, 0.25]
    model, _ = one_step_model(TaylorMapWeights.from_matrix(basis, W), [0.0, 0.0])
    np.testing.assert_allclose(predict(model, [[2.0]]), [[3.0]], rtol=1e-15)


def test_zero_matrix_maps_everything_to_zero():
    basis = build_basis(2, 2)
    w = TaylorMapWeights.from_matrix(basis, np.zeros((6, 2)))
    np.testing.assert_array_equal(apply(w, [3.0, -7.0]), [0.0, 0.0])


def test_matrix_round_trip():
    rng = np.random.default_rng(1)
    basis = build_basis(3, 2)
    mat = rng.uniform(-2.0, 2.0, size=(basis.size, 3))
    w = TaylorMapWeights.from_matrix(basis, mat)
    np.testing.assert_allclose(w.W, mat, rtol=0, atol=5e-16)


def test_order1_map_is_affine():
    rng = np.random.default_rng(2)
    basis = build_basis(3, 1)
    w = TaylorMapWeights(basis=basis, delta=rng.normal(size=(4, 3)))
    f0 = apply(w, np.zeros(3))
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = apply(w, a + b) - f0
        rhs = (apply(w, a) - f0) + (apply(w, b) - f0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_grads_identity_is_eye():
    w = identity_weights(2, 2)
    np.testing.assert_array_equal(layer_jacobian(w, [0.7, -0.2]), np.eye(2))


def test_grads_hand_univariate():
    # the map of test_hand_evaluated_univariate_map at (x, y) = (2, 0):
    # dy'/dx = 0.5 + 2 * 0.25 * 2, dy'/dy = 0, and x passes through
    basis = build_basis(2, 2)
    W = np.zeros((6, 2))
    W[1, 0] = 1.0
    W[[0, 1, 3], 1] = [1.0, 0.5, 0.25]
    w = TaylorMapWeights.from_matrix(basis, W)
    np.testing.assert_allclose(apply(w, [2.0, 0.0]), [2.0, 3.0])
    np.testing.assert_allclose(layer_jacobian(w, [2.0, 0.0]),
                               [[1.0, 0.0], [1.5, 0.0]])


def test_grads_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        order = int(rng.integers(1, 4))
        basis = build_basis(dim, order)
        w = TaylorMapWeights(basis=basis,
                             delta=rng.normal(0, 0.3, size=(basis.size, dim)))
        z = rng.uniform(-1.0, 1.0, size=dim)
        d_out_d_z = layer_jacobian(w, z)

        for j in range(dim):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd = (apply(w, zp) - apply(w, zm)) / (2 * h)
            denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(d_out_d_z[:, j])))
            assert np.max(np.abs(d_out_d_z[:, j] - fd) / denom) < 1e-5

        # weight sensitivities: output j responds to row i of column j with
        # monomial i at z; a few random spot checks per draw
        for _ in range(3):
            i = int(rng.integers(0, basis.size))
            j = int(rng.integers(0, dim))
            wp, wm = w.copy(), w.copy()
            wp.delta[i, j] += h
            wm.delta[i, j] -= h
            fd = (apply(wp, z) - apply(wm, z)) / (2 * h)
            expected = np.zeros(dim)
            expected[j] = np.prod(z ** basis.exponents[i])
            denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(expected)))
            assert np.max(np.abs(expected - fd) / denom) < 1e-5


def test_overflow_raises_divergence_error():
    basis = build_basis(2, 3)
    w = TaylorMapWeights(basis=basis, delta=np.full((basis.size, 2), 1e308))
    model, x = one_step_model(w, [10.0, 0.0])
    with pytest.raises(DivergenceError) as err:
        forward(model, x)
    assert err.value.step == 1
    np.testing.assert_array_equal(err.value.state, [10.0, 0.0])


def test_bad_inputs_rejected():
    model, _ = one_step_model(identity_weights(2, 2), [0.0, 0.0])
    with pytest.raises(ValueError):
        forward(model, [np.nan])
    with pytest.raises(ValueError):
        forward(model, [1.0, 2.0])
    with pytest.raises(ValueError):
        TaylorMapWeights(basis=build_basis(2, 2), delta=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        TaylorMapWeights(basis=build_basis(2, 2),
                         delta=np.full((6, 2), np.nan))
