"""Adamax update arithmetic."""

import numpy as np
import pytest

from tmpnn import AdamaxState, adamax_step


def test_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.5, -2.0]), np.array([[0.25]])]
    state = AdamaxState.init(params)
    out = adamax_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    for p, q in zip(params, out):
        np.testing.assert_array_equal(p, q)


def test_single_step_hand_value():
    # g=1 on a fresh state: m = 0.1, u = 1, correction = 1 - 0.9 = 0.1
    # -> delta = -0.002 / (1 + 1e-8);
    # then g=0.5: m = 0.9 * 0.1 + 0.1 * 0.5 = 0.14,
    # u = max(0.999 * 1, 0.5) = 0.999, correction = 1 - 0.9^2 = 0.19
    # -> delta = -(0.002 / 0.19) * 0.14 / (0.999 + 1e-8).
    # The tolerance is tight enough to see epsilon (1e-8 of u).
    params = [np.array([0.0])]
    state = AdamaxState.init(params)
    expected = 0.0
    for g, delta in ((1.0, -0.002 / (1 + 1e-8)),
                     (0.5, -(0.002 / 0.19) * 0.14 / (0.999 + 1e-8))):
        params = adamax_step(state, params, [np.array([g])])
        expected += delta
        assert np.isclose(params[0][0], expected, rtol=1e-12, atol=0)


def test_determinism():
    rng = np.random.default_rng(0)
    params = [rng.normal(size=4)]
    grads = [rng.normal(size=4) for _ in range(10)]

    def run():
        state = AdamaxState.init(params)
        p = [params[0].copy()]
        for g in grads:
            p = adamax_step(state, p, [g])
        return p[0]

    np.testing.assert_array_equal(run(), run())


def test_first_step_invariant_to_gradient_scale():
    params = [np.array([0.3])]
    g = np.array([0.7])
    step1 = adamax_step(AdamaxState.init(params), params, [g])[0] - params[0]
    step2 = adamax_step(AdamaxState.init(params), params,
                        [2.0 * g])[0] - params[0]
    np.testing.assert_allclose(np.abs(step1), np.abs(step2), rtol=1e-6)


def test_monotone_decrease_on_quadratic():
    # f(t) = (t - 3)^2 from t=0; loss must fall monotonically after burn-in
    theta = np.array([0.0])
    state = AdamaxState.init([theta])
    losses = []
    for _ in range(200):
        losses.append(float((theta[0] - 3.0) ** 2))
        grad = np.array([2.0 * (theta[0] - 3.0)])
        theta = adamax_step(state, [theta], [grad], lr=0.01)[0]
    tail = losses[10:]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_rejects_bad_gradients():
    params = [np.zeros(2)]
    with pytest.raises(ValueError):
        adamax_step(AdamaxState.init(params), params,
                    [np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        adamax_step(AdamaxState.init(params), params, [np.zeros(3)])
    with pytest.raises(ValueError, match="equal lengths"):
        adamax_step(AdamaxState.init(params), params, [np.zeros(2)] * 2)
