"""The per-call paths stay on numpy's C entry points.

A one-row predict, an RK4 probe or a training step on a small state runs
a few small array operations per map application, so a call through one
of numpy's Python-level wrappers (np.take, np.mean and the rest of
fromnumeric.py, or ndarray.all and ndarray.mean, whose bodies are in
_methods.py) costs more than the arithmetic it wraps.  These tests
profile each hot path and record every numpy function written in Python
that it enters: a one-row predict or forward and an RK4 probe enter only
np.errstate's (_ufunc_config.py), a training step enters one np.errstate,
and what a path enters does not grow with its number
of map applications or RK4 steps, except the training step's np.einsum,
one per layer, which has no public C entry.  They also count the RK4
oracle's field evaluations."""

import os
import sys
from collections import Counter

import numpy as np
import pytest

import tmpnn.odeview
from tmpnn import (Dataset, OdeSystem, TmpnnModel, build_basis, extract_ode,
                   forward, integrate_reference, loss_and_gradient, predict)
from tmpnn.basis import eval_monomials_batch
from tmpnn.errors import DivergenceError
from tmpnn.model import _block_rows

_NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def numpy_entries(fn):
    """(module, function) of each numpy Python function entered while fn
    runs, in call order; module is the file's name without ".py"."""
    entered = []

    def profile(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "call" and path.startswith(_NUMPY_DIR):
            module = os.path.splitext(os.path.basename(path))[0]
            entered.append((module, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


def modules(fn):
    """The numpy modules of the Python functions entered while fn runs."""
    return {module for module, _ in numpy_entries(fn)}


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    model = TmpnnModel.create(3, 1, n_latent=1, order=3, steps=4,
                              init_trainable=True, reg_l1=1e-4, reg_l2=1e-4)
    model.map.delta = rng.normal(0.0, 0.01, model.map.delta.shape)
    return model


def test_the_profile_sees_a_wrapper_call():
    ones = np.ones(3)
    assert modules(lambda: np.mean(ones)) >= {"fromnumeric"}
    assert modules(lambda: ones.all()) == {"_methods"}
    assert modules(lambda: np.logical_and.reduce(ones, None)) == set()


def test_monomial_evaluation_and_predict_enter_no_wrapper(model):
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.0, 1.0, (2 * _block_rows(model.basis) + 3, 3))
    basis, Z = build_basis(4, 3), rng.uniform(-1.0, 1.0, (5, 4))
    assert numpy_entries(lambda: eval_monomials_batch(basis, Z)) == []
    # the errstate alone, which keeps an overflow from warning
    for name, call in {"one-row predict": lambda: predict(model, X[:1]),
                       "one-row forward": lambda: forward(model, X[0])
                       }.items():
        assert modules(call) == {"_ufunc_config"}, name
    huge = np.full((1, 3), 1e30)
    calls = {
        "multi-block predict": lambda: predict(model, X),
        # overflows at map application 3, so the re-run checks each step
        "diverging one-row predict": lambda: pytest.raises(
            DivergenceError, predict, model, huge),
    }
    for name, call in calls.items():
        assert modules(call) <= {"_ufunc_config"}, name


def _batch(rng, rows):
    return Dataset(rng.uniform(-1.0, 1.0, (rows, 3)),
                   rng.uniform(-1.0, 1.0, (rows, 1)), ["a", "b", "c"], ["y"])


def test_a_training_step_enters_no_wrapper(model):
    # a plain model, and the fixture's trainable init_state, latent slot
    # and L1 + L2 penalties, which add the init_state sum and the penalty
    # sums to the step
    batch = _batch(np.random.default_rng(2), 40)
    plain = TmpnnModel.create(3, 1, order=3, steps=4)
    for name, m in (("plain", plain), ("init, latent, L1 + L2", model)):
        entered = numpy_entries(lambda: loss_and_gradient(m, batch))
        assert {module for module, _ in entered} <= {
            "_ufunc_config", "einsumfunc"}, name
        # one np.errstate spans the forward pass, the loss and the backward
        assert entered.count(("_ufunc_config", "__enter__")) == 1, name


def test_reference_integration_enters_no_wrapper(model):
    # a batch, and one row as the benchmark's verify probes integrate
    ode = extract_ode(model)
    for Z0 in (np.full((3, model.dim), 0.1), np.full(model.dim, 0.1)):
        assert modules(lambda: integrate_reference(ode, Z0, 5)) <= {
            "_ufunc_config"}, Z0.shape


def _per_call(entries, grows=()):
    return Counter(e for e in entries if e[0] not in grows)


def test_what_a_path_enters_does_not_grow_with_its_steps(model):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (2 * _block_rows(model.basis) + 3, 3))
    batch = _batch(rng, 40)
    short, long = (TmpnnModel.create(3, 1, n_latent=1, order=3, steps=p,
                                     init_trainable=True, reg_l1=1e-4,
                                     reg_l2=1e-4) for p in (2, 8))
    for m in (short, long):
        m.map.delta = model.map.delta
    for name, call, grows in (
            ("one-row predict", lambda m: predict(m, X[:1]), ()),
            ("multi-block predict", lambda m: predict(m, X), ()),
            ("forward", lambda m: forward(m, X[0]), ()),
            # np.einsum, once a layer, is the step's one Python frame
            ("training step", lambda m: loss_and_gradient(m, batch),
             ("einsumfunc",))):
        assert (_per_call(numpy_entries(lambda: call(short)), grows)
                == _per_call(numpy_entries(lambda: call(long)), grows)), name
    ode = extract_ode(model)
    for Z0 in (np.full((3, model.dim), 0.1), np.full(model.dim, 0.1)):
        few, many = (numpy_entries(lambda: integrate_reference(ode, Z0, n))
                     for n in (5, 50))
        assert Counter(few) == Counter(many), Z0.shape


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
