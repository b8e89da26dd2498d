"""ODE extraction, exact round trips, order raising, reference integration,
and rendering."""

import re
import warnings

import numpy as np
import pytest

from tmpnn import (Dataset, DivergenceError, OdeSystem, TaylorMapWeights,
                   TmpnnModel, TrainConfig, build_basis, extract_ode, fit,
                   identity_weights, integrate_reference, raise_order,
                   rebuild_map, render_ode, rescale_time)
from tmpnn.basis import eval_monomials_batch
from tmpnn.model import _forward_states


def random_delta_model(rng, n=2, m=1, k=2, p=5, scale=0.2):
    model = TmpnnModel.create(n, m, order=k, steps=p, standardize=False)
    model.map.delta = rng.normal(0, scale, model.map.delta.shape)
    return model


def test_identity_model_gives_zero_field():
    model = TmpnnModel.create(2, 1, order=2, steps=7)
    ode = extract_ode(model)
    np.testing.assert_array_equal(ode.A, np.zeros_like(ode.A))


def test_constant_row_scales_by_steps():
    model = TmpnnModel.create(1, 1, order=2, steps=5, standardize=False)
    w = model.map.W
    w[0, 1] = 0.3
    model.map = TaylorMapWeights.from_matrix(model.basis, w)
    ode = extract_ode(model)
    expected = np.zeros_like(ode.A)
    expected[0, 1] = 5 * 0.3
    np.testing.assert_allclose(ode.A, expected, rtol=1e-15, atol=0)


def test_extract_rebuild_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    for p in (1, 2, 3, 5, 7, 10):
        model = random_delta_model(rng, p=p)
        ode = extract_ode(model)
        rebuilt = rebuild_map(ode, p)
        np.testing.assert_array_equal(rebuilt.delta, model.map.delta)
        np.testing.assert_array_equal(extract_ode(model).A, ode.A)


def test_rebuild_zero_field_is_identity():
    basis = build_basis(3, 2)
    ode = OdeSystem(basis=basis, A=np.zeros((basis.size, 3)))
    for steps in (1, 4, 9):
        rebuilt = rebuild_map(ode, steps)
        np.testing.assert_array_equal(rebuilt.delta,
                                      identity_weights(3, 2).delta)


def test_rebuild_at_other_step_counts_stays_within_one_spacing():
    rng = np.random.default_rng(1)
    basis = build_basis(2, 2)
    A = rng.normal(0, 1.0, (basis.size, 2))
    ode = OdeSystem(basis=basis, A=A)
    for steps in (3, 5, 6, 7):
        rebuilt = rebuild_map(ode, steps)
        recovered = float(steps) * rebuilt.delta
        np.testing.assert_array_equal(
            np.abs(recovered - A) <= np.spacing(np.abs(A)), True)


def test_rebuild_where_the_quotient_misses_a_power_of_two():
    # 49 * (1 / 49) rounds to 1 - 2**-53, but the quotient's neighbour
    # above has the product 1.0, and so has every 2**e
    basis = build_basis(1, 1)
    for power in (1.0, 2.0 ** -40, -(2.0 ** 60)):
        A = np.array([[0.0], [power]])
        rebuilt = rebuild_map(OdeSystem(basis=basis, A=A), 49)
        np.testing.assert_array_equal(49 * rebuilt.delta, A)
        assert 49 * (power / 49) != power


@pytest.mark.parametrize("steps", [3, 5, 7])
def test_rebuild_next_to_the_float_maximum_is_quiet(steps):
    # the product steps * (A / steps) can overflow here; the search that
    # looked past it warned "overflow encountered in multiply" twice
    biggest = np.finfo(float).max
    A = np.array([[0.0, biggest], [-biggest, 1.0], [biggest, -biggest]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rebuilt = rebuild_map(OdeSystem(basis=build_basis(2, 1), A=A), steps)
        product = steps * rebuilt.delta
    # A itself, or where no double has the product A, its neighbour
    np.testing.assert_array_equal(
        (product == A) | (product == np.nextafter(A, 0.0)), True)


def test_raise_order_identity_fixed_point():
    model = TmpnnModel.create(2, 1, order=3, steps=4)
    for new_steps in (5, 8, 13):
        raised = raise_order(model, new_steps)
        np.testing.assert_array_equal(raised.map.delta, model.map.delta)
        assert raised.steps == new_steps


def test_raise_order_doubling_halves_weights():
    rng = np.random.default_rng(2)
    model = random_delta_model(rng, p=5)
    raised = raise_order(model, 10)
    # ratio p/p_bar = 1/2: every non-degree-1 coefficient halves, and the
    # degree-1 block obeys W1_bar = p W1 / p_bar + (p_bar - p) I / p_bar
    W, Wbar = model.map.W, raised.map.W
    d = model.dim
    eye_block = np.zeros_like(W)
    rows = model.basis.degree_slice(1)
    eye_block[rows, :] = np.eye(d)
    np.testing.assert_allclose(Wbar, 0.5 * W + 0.5 * eye_block,
                               rtol=0, atol=5e-16)


def test_raise_order_preserves_ode_bit_exactly_power_of_two_ratios():
    rng = np.random.default_rng(3)
    for p, p_bar in [(5, 10), (5, 20), (3, 6), (3, 24), (2, 16), (7, 14)]:
        model = random_delta_model(rng, p=p)
        raised = raise_order(model, p_bar)
        np.testing.assert_array_equal(extract_ode(raised).A,
                                      extract_ode(model).A)


def test_raise_order_general_ratio_stays_within_one_spacing():
    rng = np.random.default_rng(4)
    for p, p_bar in [(5, 7), (4, 9), (3, 11), (5, 12)]:
        model = random_delta_model(rng, p=p)
        A = extract_ode(model).A
        A_bar = extract_ode(raise_order(model, p_bar)).A
        np.testing.assert_array_equal(
            np.abs(A_bar - A) <= np.spacing(np.abs(A)), True)


def test_raise_order_requires_more_steps():
    model = TmpnnModel.create(1, 1, order=2, steps=5)
    for bad in (5, 4, 1, 0):
        with pytest.raises(ValueError):
            raise_order(model, bad)


def test_rescale_time():
    rng = np.random.default_rng(5)
    model = random_delta_model(rng, p=3)
    same = rescale_time(model, 1.0)
    np.testing.assert_array_equal(same.map.delta, model.map.delta)

    identity = TmpnnModel.create(2, 1, order=2, steps=3)
    for tau in (0.25, 2.0):
        np.testing.assert_array_equal(rescale_time(identity, tau).map.delta,
                                      identity.map.delta)

    # tau_bar -> 0 collapses the map to the identity
    flat = rescale_time(model, 0.0)
    np.testing.assert_array_equal(flat.map.delta,
                                  np.zeros_like(model.map.delta))
    half = rescale_time(model, 0.5)
    np.testing.assert_allclose(half.map.delta, 0.5 * model.map.delta, rtol=0)
    with pytest.raises(ValueError):
        rescale_time(model, -0.1)


def test_integrate_zero_field_returns_start():
    basis = build_basis(2, 2)
    ode = OdeSystem(basis=basis, A=np.zeros((basis.size, 2)))
    z0 = np.array([0.7, -1.2])
    np.testing.assert_array_equal(integrate_reference(ode, z0, 50), z0)
    # starts near the float maximum stand too, quietly (the linear
    # field: a square of 1e308 overflows for real, and 0 * inf is nan)
    linear = OdeSystem(basis=build_basis(2, 1), A=np.zeros((3, 2)))
    for z0 in (np.array([1e308, 1e308]),
               np.array([[1e308, 1e308], [-1e308, 1e308], [1e308, -1e308],
                         [-1e308, -1e308], [1e308, 1e308]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_reference(linear, z0, 50)
        assert got.tobytes() == z0.tobytes()


def test_integrate_linear_field_matches_exponential():
    basis = build_basis(1, 1)
    ode = OdeSystem(basis=basis, A=np.array([[0.0], [1.0]]))
    result = integrate_reference(ode, np.array([1.0]), 1000)
    assert abs(result[0] - np.e) < 1e-9
    half = integrate_reference(ode, np.array([1.0]), 1000, t_end=0.5)
    assert abs(half[0] - np.exp(0.5)) < 1e-9


@pytest.mark.parametrize("order", [2, 3])
def test_integrate_is_textbook_rk4(order):
    # k1..k4 written out plainly; integrate_reference folds RK4's weights
    # into the coefficients, so the two differ in rounding only
    rng = np.random.default_rng(30 + order)
    basis = build_basis(3, order)
    A = rng.normal(0.0, 0.3, (basis.size, 3))
    ode = OdeSystem(basis=basis, A=A)

    def f(Z):
        return eval_monomials_batch(basis, Z) @ A

    h = 1.0 / 50
    for z0 in (rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, (7, 3))):
        z = np.atleast_2d(z0)
        for _ in range(50):
            k1 = f(z)
            k2 = f(z + h / 2 * k1)
            k3 = f(z + h / 2 * k2)
            k4 = f(z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = integrate_reference(ode, z0, 50)
        assert got.shape == z0.shape
        for g, want in zip(np.atleast_2d(got), z):
            assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)


def test_integrate_validates_arguments():
    basis = build_basis(1, 1)
    ode = OdeSystem(basis=basis, A=np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        integrate_reference(ode, np.array([1.0]), 0)
    for bad in (np.array([1.0, 2.0]), np.ones((3, 2)), np.ones((2, 1, 1)),
                np.array(1.0)):
        with pytest.raises(ValueError, match="z0 must have shape"):
            integrate_reference(ode, bad, 10)


def test_integrate_batch_agrees_with_a_per_row_loop():
    rng = np.random.default_rng(10)
    for n, m, k in ((1, 1, 2), (2, 1, 3), (3, 2, 2)):
        model = random_delta_model(rng, n=n, m=m, k=k, scale=0.05)
        ode = extract_ode(model)
        Z0 = rng.uniform(-0.5, 0.5, (7, ode.dim))
        loop = [integrate_reference(ode, z, 200, t_end=0.8) for z in Z0]
        assert all(z.shape == (ode.dim,) for z in loop)
        before = Z0.copy()
        batch = integrate_reference(ode, Z0, 200, t_end=0.8)
        assert batch.shape == Z0.shape
        for got, want in zip(batch, loop):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        np.testing.assert_array_equal(Z0, before)


def test_integrate_divergence_names_the_first_row_and_step():
    # dz/dtau = z^2 blows up at tau = 1/z0: from 4 within the first few
    # steps, from 2 later, and never from 0.1 within the unit interval
    basis = build_basis(1, 2)
    ode = OdeSystem(basis=basis, A=np.array([[0.0], [0.0], [1.0]]))
    Z0 = np.array([[0.1], [2.0], [0.1], [4.0], [4.0]])
    with pytest.raises(DivergenceError) as batched:
        integrate_reference(ode, Z0, 10)
    with pytest.raises(DivergenceError) as single:
        integrate_reference(ode, Z0[3], 10)
    assert batched.value.row == 3
    assert batched.value.step == single.value.step
    assert f"step {single.value.step} (row 3)" in str(batched.value)
    assert single.value.row is None
    # the state entering the step that overflowed, finite and past the
    # start, is the same in both calls
    np.testing.assert_allclose(batched.value.state, single.value.state,
                               rtol=1e-14)
    assert np.isfinite(single.value.state).all()
    assert single.value.state[0] > 4.0
    with pytest.raises(DivergenceError) as later:
        integrate_reference(ode, Z0[:3], 10)
    assert later.value.row == 1 and later.value.step > single.value.step


def stepwise_divergence(ode, z0, n_steps):
    """(step, error) of the first one-step integrate_reference call that
    raises, chaining calls of horizon 1 / n_steps from z0: the same
    arithmetic as one n_steps call, with a finiteness check after every
    step."""
    z = z0
    for step in range(1, n_steps + 1):
        try:
            z = integrate_reference(ode, z, 1, 1.0 / n_steps)
        except DivergenceError as err:
            return step, err


@pytest.mark.parametrize("rows", [[3, 0, 4], [3], [0, 1, 2], [0, 5], [5],
                                  [5, 3]])
def test_a_diverging_integration_raises_the_per_step_error(rows):
    # a whole run raises the error that chained one-step calls raise, to
    # the bit: dz/dtau = z^2 from 4 overflows at step 5, from 2 at step
    # 8, from 1e200 in step 1, and from 0.1 not at all
    ode = OdeSystem(basis=build_basis(1, 2), A=np.array([[0.0], [0.0], [1.0]]))
    starts = np.array([[0.1], [2.0], [0.1], [4.0], [4.0], [1e200]])
    z0 = starts[rows] if len(rows) > 1 else starts[rows[0]]
    step, want = stepwise_divergence(ode, z0, 10)
    with pytest.raises(DivergenceError) as got:
        integrate_reference(ode, z0, 10)
    row = want.row if z0.ndim == 2 else None
    assert str(got.value) == (f"reference integration diverged at step "
                              f"{step}" + ("" if row is None
                                           else f" (row {row})"))
    assert (got.value.step, got.value.row) == (step, row)
    assert got.value.state.tobytes() == want.state.tobytes()


@pytest.fixture(scope="module")
def trained_sine_model():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 200)
    data = Dataset(x[:, None], (0.3 * np.sin(x))[:, None], ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=2, steps=10, reg_l2=1e-4)
    fit(model, data, config=TrainConfig(epochs=250, batch_size="full",
                                        shuffle_seed=9))
    return model, data


def test_trained_model_euler_error_halves_with_steps(trained_sine_model):
    model, data = trained_sine_model
    ode = extract_ode(model)
    raised = raise_order(model, 20)
    np.testing.assert_array_equal(extract_ode(raised).A, ode.A)

    Z0 = model.initial_state(data.X[:50])
    ref = integrate_reference(ode, Z0, 1000)
    err_p = np.linalg.norm(_forward_states(model, Z0)[-1] - ref, axis=1)
    err_2p = np.linalg.norm(_forward_states(raised, Z0)[-1] - ref, axis=1)
    ratio = err_p.mean() / err_2p.mean()
    assert 1.5 <= ratio <= 3.0
    # finer discretization should help nearly everywhere
    assert np.mean(err_2p < err_p) >= 0.9


def test_trajectory_tracks_reference_at_intermediate_times(trained_sine_model):
    # intermediate iterates sample the flow at tau = t/steps: the same
    # physical time stays comparable and refinement brings it closer
    model, data = trained_sine_model
    ode = extract_ode(model)
    raised = raise_order(model, 20)
    Z0 = model.initial_state(data.X[:10])
    coarse = _forward_states(model, Z0)
    fine = _forward_states(raised, Z0)
    for t in (3, 7, 10):
        ref = integrate_reference(ode, Z0, 500, t_end=t / 10.0)
        err10 = np.linalg.norm(coarse[t] - ref, axis=1).mean()
        err20 = np.linalg.norm(fine[2 * t] - ref, axis=1).mean()
        assert err20 < err10 < 1.0


def test_render_zero_system():
    basis = build_basis(2, 1)
    ode = OdeSystem(basis=basis, A=np.zeros((3, 2)))
    assert render_ode(ode, ["x", "y"]) == "dx/dτ = 0\ndy/dτ = 0"


def test_render_constant_term():
    basis = build_basis(2, 1)
    A = np.zeros((3, 2))
    A[0, 1] = 2.5
    ode = OdeSystem(basis=basis, A=A)
    assert render_ode(ode, ["x", "y"]) == "dx/dτ = 0\ndy/dτ = 2.5"


def test_render_round_trips_through_parser():
    rng = np.random.default_rng(6)
    basis = build_basis(2, 3)
    A = np.where(rng.uniform(size=(basis.size, 2)) < 0.6,
                 rng.uniform(-3, 3, (basis.size, 2)), 0.0)
    ode = OdeSystem(basis=basis, A=A)
    names = ["u", "v"]
    text = render_ode(ode, names)

    index_of = {}
    for i, row in enumerate(basis.exponents.tolist()):
        parts = []
        for e, name in zip(row, names):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        index_of["*".join(parts)] = i

    parsed = np.zeros_like(A)
    for j, line in enumerate(text.splitlines()):
        rhs = line.split(" = ", 1)[1]
        if rhs == "0":
            continue
        for sign, coeff, mono in re.findall(
                r"(^-|[+-] )?(\d[\d.e+-]*)(?:\*([\w^*]+))?", rhs.strip()):
            value = float(coeff)
            if sign.strip() == "-":
                value = -value
            parsed[index_of[mono or ""], j] = value
    np.testing.assert_allclose(parsed, A, rtol=1e-8, atol=1e-12)


def test_a_non_finite_horizon_is_a_value_error_naming_it():
    # integrate_reference used to report "diverged at step 1", and
    # rescale_time to warn, then blame the weight matrix
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    ode = extract_ode(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="^t_end "):
                integrate_reference(ode, [0.5, 0.5], 10, bad)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^tau_bar "):
                rescale_time(model, bad)


def test_a_finite_horizon_that_overflows_is_a_divergence_or_names_tau_bar():
    # the RK4 coefficient tables for t_end = 1e308 used to overflow with a
    # warning before the integration began, and rescale_time to warn, then
    # blame the weight matrix
    basis = build_basis(2, 2)
    ode = OdeSystem(basis=basis, A=np.full((basis.size, 2), 10.0))
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    model.map.delta = np.full(model.map.delta.shape, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_steps in (1, 4):
            with pytest.raises(DivergenceError) as err:
                integrate_reference(ode, [0.5, 0.5], n_steps, 1e308)
            assert (err.value.step, err.value.row) == (1, None)
        with pytest.raises(ValueError, match="^tau_bar .* at row 0, column 0$"):
            rescale_time(model, 1e308)


def test_weights_that_steps_times_delta_overflows_name_it():
    # extract_ode, and raise_order through it, used to warn "overflow
    # encountered in multiply" before OdeSystem rejected A
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    model.map.delta = np.full(model.map.delta.shape, 1e308)
    text = "steps * delta holds the non-finite value inf at row 0, column 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: extract_ode(model), lambda: raise_order(model, 4)):
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call()


def test_render_threshold_and_name_validation():
    basis = build_basis(1, 1)
    A = np.array([[1e-12], [1.0]])
    ode = OdeSystem(basis=basis, A=A)
    assert "1e-12" not in render_ode(ode, ["x"])
    assert "1e-12" in render_ode(ode, ["x"], threshold=1e-14)
    with pytest.raises(ValueError):
        render_ode(ode, ["x", "extra"])
