"""The per-call paths stay on numpy's C entry points.

A one-row predict, an RK4 probe or a training step on a small state runs
a few small array operations per map application, so a call through one
of numpy's Python-level wrappers
(np.take, np.mean, np.sum and the rest of fromnumeric.py) costs more
than the arithmetic it wraps.  These tests profile each hot path and
fail when it enters fromnumeric.py at all, and count the RK4 oracle's
field evaluations."""

import os
import sys

import numpy as np
import pytest

import tmpnn.odeview
from tmpnn import (Dataset, OdeSystem, TmpnnModel, build_basis, extract_ode,
                   integrate_reference, loss_and_gradient, predict)
from tmpnn.basis import eval_monomials_batch
from tmpnn.errors import DivergenceError
from tmpnn.model import _block_rows


def fromnumeric_entries(fn):
    """The names of the fromnumeric.py functions entered while fn runs."""
    entered = []

    def profile(frame, event, arg):
        if (event == "call" and os.path.basename(frame.f_code.co_filename)
                == "fromnumeric.py"):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    model = TmpnnModel.create(3, 1, n_latent=1, order=3, steps=4,
                              init_trainable=True, reg_l1=1e-4, reg_l2=1e-4)
    model.map.delta = rng.normal(0.0, 0.01, model.map.delta.shape)
    return model


def test_the_profile_sees_a_wrapper_call():
    assert fromnumeric_entries(lambda: np.mean(np.ones(3))) != []


def test_monomial_evaluation_and_predict_enter_no_wrapper(model):
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.0, 1.0, (2 * _block_rows(model.basis) + 3, 3))
    basis, Z = build_basis(4, 3), rng.uniform(-1.0, 1.0, (5, 4))
    calls = {
        "eval": lambda: eval_monomials_batch(basis, Z),
        "one-row predict": lambda: predict(model, X[:1]),
        "multi-block predict": lambda: predict(model, X),
        # overflows at map application 3, so the re-run checks each step
        "diverging one-row predict": lambda: pytest.raises(
            DivergenceError, predict, model, np.full((1, 3), 1e30)),
    }
    for name, call in calls.items():
        assert fromnumeric_entries(call) == [], name


def test_a_training_step_enters_no_wrapper(model):
    # a plain model, and the fixture's trainable init_state, latent slot
    # and L1 + L2 penalties, which add the init_state sum and the penalty
    # sums to the step
    rng = np.random.default_rng(2)
    batch = Dataset(rng.uniform(-1.0, 1.0, (40, 3)),
                    rng.uniform(-1.0, 1.0, (40, 1)), ["a", "b", "c"], ["y"])
    plain = TmpnnModel.create(3, 1, order=3, steps=4)
    for name, m in (("plain", plain), ("init, latent, L1 + L2", model)):
        assert fromnumeric_entries(
            lambda: loss_and_gradient(m, batch)) == [], name


def test_reference_integration_enters_no_wrapper(model):
    # a batch, and one row as the benchmark's verify probes integrate
    ode = extract_ode(model)
    for Z0 in (np.full((3, model.dim), 0.1), np.full(model.dim, 0.1)):
        assert fromnumeric_entries(
            lambda: integrate_reference(ode, Z0, 5)) == [], Z0.shape


@pytest.fixture
def field_evals(monkeypatch):
    """The arguments of every odeview.eval_monomials_batch call; the
    benchmark's tracer counts field evaluations by these calls."""
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_monomials_batch(*args)

    monkeypatch.setattr(tmpnn.odeview, "eval_monomials_batch", counted)
    return calls


@pytest.mark.parametrize("n_steps", [1, 7])
def test_a_finite_integration_evaluates_the_field_four_times_a_step(
        model, field_evals, n_steps):
    ode = extract_ode(model)
    integrate_reference(ode, np.full(model.dim, 0.1), n_steps)
    assert len(field_evals) == 4 * n_steps


@pytest.mark.parametrize("z0, step", [(4.0, 5), (2.0, 8), (1e200, 1)])
def test_a_diverging_integration_stops_at_the_step_it_overflows_in(
        field_evals, z0, step):
    # dz/dtau = z^2 over 10 steps: a probe that blows up early costs the
    # steps up to the blow-up, not the whole horizon
    ode = OdeSystem(basis=build_basis(1, 2), A=np.array([[0.0], [0.0], [1.0]]))
    with pytest.raises(DivergenceError) as err:
        integrate_reference(ode, np.array([z0]), 10)
    assert err.value.step == step
    assert len(field_evals) == 4 * step
