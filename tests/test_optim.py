"""Adamax update arithmetic."""

import numpy as np
import pytest

from tmpnn import AdamaxState, adamax_step


def fresh(params, **kw):
    return AdamaxState.init(params, **kw)


def test_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.5, -2.0]), np.array([[0.25]])]
    state = fresh(params)
    out = adamax_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    for p, q in zip(params, out):
        np.testing.assert_array_equal(p, q)


def test_single_step_hand_value():
    # g=1 on a fresh state with defaults:
    # m = 0.1, u = 1, correction = 0.1 -> delta = -0.002 / (1 + 1e-8)
    params = [np.array([0.0])]
    state = fresh(params)
    out = adamax_step(state, params, [np.array([1.0])])
    assert np.isclose(out[0][0], -0.002, rtol=1e-6)


def test_determinism():
    rng = np.random.default_rng(0)
    params = [rng.normal(size=4)]
    grads = [rng.normal(size=4) for _ in range(10)]

    def run():
        state = fresh(params)
        p = [params[0].copy()]
        for g in grads:
            p = adamax_step(state, p, [g])
        return p[0]

    np.testing.assert_array_equal(run(), run())


def test_first_step_invariant_to_gradient_scale():
    params = [np.array([0.3])]
    g = np.array([0.7])
    step1 = adamax_step(fresh(params), params, [g])[0] - params[0]
    step2 = adamax_step(fresh(params), params, [2.0 * g])[0] - params[0]
    np.testing.assert_allclose(np.abs(step1), np.abs(step2), rtol=1e-6)


def test_monotone_decrease_on_quadratic():
    # f(t) = (t - 3)^2 from t=0; loss must fall monotonically after burn-in
    theta = np.array([0.0])
    state = fresh([theta], alpha=0.01)
    losses = []
    for _ in range(200):
        losses.append(float((theta[0] - 3.0) ** 2))
        grad = np.array([2.0 * (theta[0] - 3.0)])
        theta = adamax_step(state, [theta], [grad])[0]
    tail = losses[10:]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_rejects_bad_gradients():
    params = [np.zeros(2)]
    with pytest.raises(ValueError):
        adamax_step(fresh(params), params, [np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        adamax_step(fresh(params), params, [np.zeros(3)])
