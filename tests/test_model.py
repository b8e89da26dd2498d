"""Model forward pass, loss gradients, and the training loop."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tmpnn import (Dataset, DivergenceError, Scaler, TmpnnModel, TrainConfig,
                   TrainingDivergedError, fit, forward, identity_weights,
                   loss_and_gradient, metric_mse, predict)
from tmpnn.basis import eval_monomials_batch
from tmpnn.model import (_Workspace, _block_rows, _feature_major,
                         _forward_states, _step)
from tmpnn.optim import AdamaxState, adamax_step


def random_model(rng, n, m, l=0, k=2, p=3, scale=0.1, **kw):
    model = TmpnnModel.create(n, m, n_latent=l, order=k, steps=p,
                              standardize=False, **kw)
    model.map.delta = model.map.delta + rng.normal(0, scale,
                                                   model.map.delta.shape)
    return model


def test_identity_model_predicts_zero():
    model = TmpnnModel.create(3, 2, order=2, steps=4, standardize=False)
    X = np.random.default_rng(0).normal(size=(10, 3))
    np.testing.assert_array_equal(predict(model, X), np.zeros((10, 2)))
    pred, trajectory = forward(model, X[0])
    np.testing.assert_array_equal(pred, np.zeros(2))
    assert len(trajectory) == 5
    for state in trajectory:
        np.testing.assert_array_equal(state, trajectory[0])


def test_trajectory_starts_from_extended_state():
    model = TmpnnModel.create(2, 1, n_latent=1, order=2, steps=2,
                              standardize=False)
    model.init_state = np.array([0.5, -0.25])
    _, trajectory = forward(model, [3.0, 4.0])
    np.testing.assert_array_equal(trajectory[0], [3.0, 4.0, 0.5, -0.25])


def test_single_step_equals_direct_polynomial():
    # with p=1 the target output is literally one polynomial in (x, 0)
    rng = np.random.default_rng(1)
    model = random_model(rng, 1, 1, k=2, p=1, scale=0.5)
    basis = model.basis
    W = model.map.W
    for _ in range(20):
        x = rng.uniform(-2, 2)
        phi = eval_monomials_batch(basis, np.array([[x, 0.0]]))[0]
        expected = float(phi @ W[:, 1])
        got = float(predict(model, np.array([[x]]))[0, 0])
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_order1_model_satisfies_superposition():
    rng = np.random.default_rng(2)
    model = random_model(rng, 3, 2, k=1, p=4, scale=0.3)
    f0 = predict(model, np.zeros((1, 3)))[0]
    for _ in range(10):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = predict(model, (a + b)[None, :])[0] - f0
        rhs = (predict(model, a[None, :])[0] - f0) + (predict(model, b[None, :])[0] - f0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_predict_rows_match_forward():
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, 2, l=1, k=3, p=3)
    X = rng.normal(size=(7, 2))
    batch = predict(model, X)
    for i in range(7):
        single, _ = forward(model, X[i])
        np.testing.assert_allclose(batch[i], single, rtol=1e-13, atol=1e-15)
        # a one-row predict is forward's arithmetic: the same bits
        np.testing.assert_array_equal(predict(model, X[i])[0], single)


def test_chunked_predict_equals_one_unchunked_pass():
    # blocks are split evenly, so none has a single row (a 1-row product
    # takes another BLAS path), and predict is bit-identical to one pass
    # over all rows at and around the block boundaries
    rng = np.random.default_rng(21)
    for n, m, l, k in [(5, 1, 0, 3), (10, 2, 2, 2)]:
        model = random_model(rng, n, m, l=l, k=k, p=5, scale=0.02)
        C = _block_rows(model.basis)
        # no rows: an empty block plan, not a division by zero
        assert predict(model, np.empty((0, n))).shape == (0, m)
        for N in (1, 2, C - 1, C, C + 1, 2 * C + 1):
            X = rng.uniform(-1.0, 1.0, size=(N, n))
            states = _forward_states(model, model.initial_state(X))
            np.testing.assert_array_equal(predict(model, X),
                                          states[-1][:, n:n + m])


def test_chunked_predict_of_a_basis_wider_than_a_gemm_block():
    # past a few hundred monomials BLAS splits the phi @ delta sum in
    # blocks for some row counts and not for others, so blocks may move
    # the last bits, as the batch size did in one pass
    rng = np.random.default_rng(24)
    model = random_model(rng, 10, 2, l=2, k=3, p=5, scale=0.002)
    C = _block_rows(model.basis)
    X = rng.uniform(-1.0, 1.0, size=(2 * C + 1, 10))
    states = _forward_states(model, model.initial_state(X))
    np.testing.assert_allclose(predict(model, X), states[-1][:, 10:12],
                               rtol=1e-12, atol=1e-15)


def _traced_predict_peak(model, X):
    tracemalloc.start()
    try:
        predict(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_predict_memory_is_bounded_by_the_block_budget():
    # the unchunked pass held a (50k x 84) monomial matrix per step, 140 MB
    # in all; the blocks keep the peak to the input, output and a block
    model = TmpnnModel.create(5, 1, order=3, steps=5)
    X = np.random.default_rng(22).uniform(0.0, 1.0, size=(50_000, 5))
    model.scaler = Scaler.fit(X)
    assert _traced_predict_peak(model, X) < 16 * 2 ** 20
    # start states are built and scaled per block too: past the result
    # (N x m doubles) and the finiteness mask of X (N x n bools) nothing
    # grows with N; whole-input start states held 14 MiB more here
    N = 200_000
    X = np.random.default_rng(25).uniform(0.0, 1.0, size=(N, 5))
    model.scaler = Scaler.fit(X)
    transient = _traced_predict_peak(model, X) - N * 1 * 8 - N * 5
    assert transient < 2 * 2 ** 20


def test_predict_memory_does_not_grow_with_steps():
    # a block used to keep all p states for the divergence scan: 50 MB
    # at 2000 steps here against 0.7 MB at 5; two buffers serve any p
    rng = np.random.default_rng(26)
    model = TmpnnModel.create(5, 1, order=3, steps=5)
    # weights near zero keep 2000 steps finite
    model.map.delta = rng.normal(0.0, 1e-6, model.map.delta.shape)
    X = rng.uniform(-1.0, 1.0, size=(2 * _block_rows(model.basis) + 1, 5))
    model.scaler = Scaler.fit(X)
    few = _traced_predict_peak(model, X)
    many = _traced_predict_peak(replace(model, steps=2000), X)
    assert abs(many - few) <= 16 * 2 ** 10


def test_identity_zero_targets_zero_loss_and_gradient():
    model = TmpnnModel.create(2, 1, order=2, steps=3, standardize=False)
    data = Dataset(np.random.default_rng(0).normal(size=(8, 2)),
                   np.zeros((8, 1)), ["a", "b"], ["y"])
    loss, grads = loss_and_gradient(model, data)
    assert loss == 0.0
    np.testing.assert_array_equal(grads["delta"], np.zeros_like(grads["delta"]))


def test_hand_gradient_single_affine_sample():
    # p=1, k=1, n=m=1: prediction = d0 + d1 x, loss = (pred - y)^2
    rng = np.random.default_rng(4)
    model = random_model(rng, 1, 1, k=1, p=1, scale=0.4)
    x, y = 0.7, -0.3
    d = model.map.delta
    pred = d[0, 1] + d[1, 1] * x
    data = Dataset(np.array([[x]]), np.array([[y]]), ["x"], ["y"])
    loss, grads = loss_and_gradient(model, data)
    np.testing.assert_allclose(loss, (pred - y) ** 2, rtol=1e-14)
    np.testing.assert_allclose(grads["delta"][0, 1], 2 * (pred - y), rtol=1e-13)
    np.testing.assert_allclose(grads["delta"][1, 1], 2 * (pred - y) * x, rtol=1e-13)
    np.testing.assert_allclose(grads["delta"][2, 1], 0.0, atol=1e-18)
    np.testing.assert_allclose(grads["delta"][:, 0], 0.0, atol=1e-18)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        l = int(rng.integers(0, 2))
        model = random_model(rng, n, m, l=l, k=int(rng.integers(1, 4)),
                             p=int(rng.integers(1, 4)), init_trainable=True)
        model.init_state = rng.normal(0, 0.1, m + l)
        model.reg_l1 = float(rng.uniform(0, 0.01))
        model.reg_l2 = float(rng.uniform(0, 0.01))
        batch = Dataset(rng.normal(0, 0.6, size=(5, n)),
                        rng.normal(0, 0.6, size=(5, m)),
                        [f"x{i}" for i in range(n)], [f"y{i}" for i in range(m)])
        _, grads = loss_and_gradient(model, batch)
        for arr, ana in ((model.map.delta, grads["delta"]),
                         (model.init_state, grads["init_state"])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp = loss_and_gradient(model, batch)[0]
                arr[idx] = orig - h
                lm = loss_and_gradient(model, batch)[0]
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(1.0, abs(fd), abs(ana[idx]))
                assert abs(ana[idx] - fd) / denom < 1e-5


def test_delta_gradient_does_not_depend_on_init_trainable():
    # the first layer's Jacobian chain feeds only the init_state gradient,
    # and is skipped when init_state is fixed
    rng = np.random.default_rng(23)
    for n, m, l, k, p in [(2, 1, 1, 3, 4), (5, 1, 0, 3, 5), (1, 2, 0, 2, 1)]:
        model = random_model(rng, n, m, l=l, k=k, p=p)
        model.init_state = rng.normal(0, 0.1, m + l)
        batch = Dataset(rng.normal(0, 0.6, size=(32, n)),
                        rng.normal(0, 0.6, size=(32, m)),
                        [f"x{i}" for i in range(n)], [f"y{i}" for i in range(m)])
        loss_off, off = loss_and_gradient(model, batch)
        loss_on, on = loss_and_gradient(replace(model, init_trainable=True),
                                        batch)
        assert loss_off == loss_on
        assert set(off) == {"delta"} and set(on) == {"delta", "init_state"}
        np.testing.assert_array_equal(off["delta"], on["delta"])


def reference_loss_and_gradient(model, batch):
    """The row-major backward chain, with each layer Jacobian built by
    the product rule from basis.exponents: d(z^a)/dz_j = a_j z^(a - e_j).
    Returns (loss, delta gradient, init_state gradient)."""
    n, m, dim = model.n_features, model.n_targets, model.dim
    basis, delta, W = model.basis, model.map.delta, model.map.W
    states = [model.initial_state(batch.X)]
    for _ in range(model.steps):
        states.append(states[-1]
                      + eval_monomials_batch(basis, states[-1]) @ delta)
    resid = states[-1][:, n:n + m] - batch.Y
    loss = np.mean(resid ** 2) + model.reg_l1 * np.abs(W).sum() \
        + model.reg_l2 * (W ** 2).sum()
    G = np.zeros_like(states[0])
    G[:, n:n + m] = 2.0 * resid / resid.size
    d_delta = model.reg_l1 * np.sign(W) + 2.0 * model.reg_l2 * W
    for Z in reversed(states[:-1]):
        d_delta += eval_monomials_batch(basis, Z).T @ G
        # dphi[r, i, j]: the derivative of monomial i along z_j at row r
        dphi = np.empty((len(Z), basis.size, dim))
        for j in range(dim):
            lowered = np.maximum(basis.exponents - np.eye(dim, dtype=int)[j], 0)
            dphi[:, :, j] = basis.exponents[:, j] * np.prod(
                Z[:, None, :] ** lowered, axis=2)
        G = G + np.einsum("rij,io,ro->rj", dphi, delta, G)
    return loss, d_delta, G[:, n:].sum(axis=0)


@pytest.mark.parametrize("n, m, l, k, p, rows, kwargs", [
    (5, 1, 0, 3, 5, 256, {}),
    (10, 2, 2, 2, 5, 300, {"init_trainable": True}),
    (3, 2, 1, 3, 4, 77, {"reg_l1": 1e-3, "reg_l2": 1e-3}),
    (4, 1, 1, 3, 4, 700, {"init_trainable": True, "reg_l2": 1e-3}),
], ids=["friedman", "wide-init", "latent-l1-l2", "tall-batch"])
def test_gradient_matches_a_row_major_product_rule_chain(n, m, l, k, p, rows,
                                                         kwargs):
    # the step's feature-major chain reads each layer Jacobian off the
    # raised-index table C; the reference differentiates each monomial
    rng = np.random.default_rng(28)
    model = random_model(rng, n, m, l=l, k=k, p=p, scale=0.05, **kwargs)
    model.init_state = rng.normal(0, 0.1, m + l)
    batch = Dataset(rng.normal(0, 0.6, size=(rows, n)),
                    rng.normal(0, 0.6, size=(rows, m)),
                    [f"x{i}" for i in range(n)], [f"y{i}" for i in range(m)])
    loss, grads = loss_and_gradient(model, batch)
    ref_loss, ref_delta, ref_init = reference_loss_and_gradient(model, batch)
    assert abs(loss - ref_loss) <= 1e-13 * ref_loss
    pairs = [(grads["delta"], ref_delta)]
    if model.init_trainable:
        pairs.append((grads["init_state"], ref_init))
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_a_training_step_holds_nothing_batch_sized_but_the_residual():
    # the row-major chain allocated phi @ G, the slot sum and G + ... per
    # layer, 614 KiB at this size; the feature-major one works in the
    # workspace, and the residual and its square take 64 KiB
    rng = np.random.default_rng(29)
    model = random_model(rng, 5, 1, k=3, p=5, scale=0.02)
    rows = 4096
    ws = _Workspace(model, rows)
    model._fill_states(rng.uniform(-1.0, 1.0, size=(rows, 5)),
                       _feature_major(ws.states, rows, model.dim))
    ws.Y[:] = rng.normal(0, 0.5, size=(rows, 1))
    tracemalloc.start()
    try:
        _step(model, ws, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 10


def test_multi_target_width_is_structural():
    rng = np.random.default_rng(6)
    model = random_model(rng, 2, 2, k=2, p=2)
    assert predict(model, rng.normal(size=(5, 2))).shape == (5, 2)


def test_fit_constant_target_converges():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(64, 2))
    data = Dataset(X, np.full((64, 1), 0.7), ["a", "b"], ["y"])
    model = TmpnnModel.create(2, 1, order=2, steps=2)
    report = fit(model, data, config=TrainConfig(epochs=1200, batch_size="full",
                                                 shuffle_seed=0))
    assert report.final_train_mse < 1e-4


def test_fit_deterministic():
    data_rng = np.random.default_rng(8)
    X = data_rng.uniform(-1, 1, size=(60, 2))
    Y = (X[:, :1] * X[:, 1:]) + 0.5
    data = Dataset(X, Y, ["a", "b"], ["y"])

    def run():
        model = TmpnnModel.create(2, 1, order=2, steps=3)
        report = fit(model, data, config=TrainConfig(epochs=40, batch_size=16,
                                                     shuffle_seed=3))
        return report.train_losses, model.map.delta

    losses1, delta1 = run()
    losses2, delta2 = run()
    assert losses1 == losses2
    np.testing.assert_array_equal(delta1, delta2)


@pytest.mark.parametrize("kwargs", [
    {}, {"init_trainable": True}, {"reg_l1": 1e-4, "reg_l2": 1e-3},
], ids=["plain", "init_trainable", "regularized"])
def test_fit_equals_a_loop_of_public_steps_bit_for_bit(kwargs):
    # fit gathers batches into one workspace and scales the features once;
    # a loop of loss_and_gradient on Dataset batches and adamax_step must
    # give the same weights, init_state and losses, short last batch
    # (100 = 3 * 32 + 4 rows) included
    rng = np.random.default_rng(31)
    X = rng.uniform(-1, 1, size=(100, 3))
    Y = np.stack([X[:, 0] * X[:, 1], np.sin(X[:, 2])], axis=1)
    data = Dataset(X, Y, ["a", "b", "c"], ["u", "v"])
    config = TrainConfig(epochs=3, batch_size=32, learning_rate=0.01,
                         shuffle_seed=5)

    def new_model():
        model = TmpnnModel.create(3, 2, n_latent=1, order=3, steps=3,
                                  init="perturbed", seed=2, **kwargs)
        model.init_state = np.array([0.1, -0.2, 0.3])
        return model

    model = new_model()
    report = fit(model, data, config=config)

    ref = new_model()
    ref.scaler = Scaler.fit(X)
    params = [ref.map.delta] + ([ref.init_state] if ref.init_trainable else [])
    opt = AdamaxState.init(params)
    order = np.random.default_rng(config.shuffle_seed)
    losses = []
    for _ in range(config.epochs):
        perm = order.permutation(100)
        epoch = []
        for start in range(0, 100, 32):
            loss, grads = loss_and_gradient(ref, data.take(perm[start:start + 32]))
            params = adamax_step(opt, params, list(grads.values()),
                                 lr=config.learning_rate)
            ref.map.delta = params[0]
            if ref.init_trainable:
                ref.init_state = params[1]
            epoch.append(loss)
        losses.append(float(np.mean(epoch)))

    assert report.diverged_steps == 0
    assert report.train_losses == losses
    np.testing.assert_array_equal(model.map.delta, ref.map.delta)
    np.testing.assert_array_equal(model.init_state, ref.init_state)
    if kwargs.get("init_trainable"):
        assert not np.array_equal(model.init_state, new_model().init_state)


def test_standardization_round_trip():
    rng = np.random.default_rng(9)
    X = rng.uniform(5.0, 9.0, size=(50, 2))
    Y = X[:, :1] - 2 * X[:, 1:]
    data = Dataset(X, Y, ["a", "b"], ["y"])
    config = TrainConfig(epochs=30, batch_size=16, shuffle_seed=1)

    model_a = TmpnnModel.create(2, 1, order=2, steps=2, standardize=True)
    fit(model_a, data, config=config)

    mean, scale = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mean) / scale
    model_b = TmpnnModel.create(2, 1, order=2, steps=2, standardize=False)
    fit(model_b, Dataset(Xs, Y, ["a", "b"], ["y"]), config=config)

    Xnew = rng.uniform(5.0, 9.0, size=(10, 2))
    np.testing.assert_array_equal(predict(model_a, Xnew),
                                  predict(model_b, (Xnew - mean) / scale))


def test_scaler_transform_writes_into_a_buffer_bit_for_bit():
    scaler = Scaler(mean=[1.0, -2.0], scale=[3.0, 0.7])
    X = np.random.default_rng(16).normal(size=(7, 2))
    want = (X - scaler.mean) / scaler.scale
    assert scaler.transform(X).tobytes() == want.tobytes()
    # the feature columns of a wider state buffer, as predict passes them
    buf = np.full((7, 4), np.nan)
    assert scaler.transform(X, out=buf[:, 1:3]).base is buf
    assert buf[:, 1:3].tobytes() == want.tobytes()
    assert np.isnan(buf[:, [0, 3]]).all()


def test_refit_keeps_the_scaler():
    # a warm start on a subset must train in the coordinates the map was
    # learned in, not in ones refitted to the subset
    rng = np.random.default_rng(15)
    X = rng.uniform(5.0, 9.0, size=(200, 2))
    data = Dataset(X, X[:, :1] * X[:, 1:], ["a", "b"], ["y"])
    model = TmpnnModel.create(2, 1, order=2, steps=2)
    fit(model, data, config=TrainConfig(epochs=2, batch_size=32))
    mean, scale = model.scaler.mean.copy(), model.scaler.scale.copy()
    fit(model, data.take(np.arange(50)), config=TrainConfig(epochs=1))
    np.testing.assert_array_equal(model.scaler.mean, mean)
    np.testing.assert_array_equal(model.scaler.scale, scale)


def test_init_state_training():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 1))
    data = Dataset(X, X + 1.0, ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=1, steps=2, init_trainable=True)
    before = model.init_state.copy()
    loss, grads = loss_and_gradient(model, data)
    assert "init_state" in grads
    assert np.any(grads["init_state"] != 0)
    fit(model, data, config=TrainConfig(epochs=50, batch_size="full"))
    assert np.any(model.init_state != before)


def test_early_stopping_restores_best_weights():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(24, 1))
    Y = np.sin(3 * X) + 0.3 * rng.normal(size=(24, 1))
    train = Dataset(X[:16], Y[:16], ["x"], ["y"])
    valid = Dataset(X[16:], Y[16:], ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=3, steps=3)
    config = TrainConfig(epochs=400, batch_size="full", learning_rate=0.02,
                         early_stop=(20, 0.0))
    report = fit(model, train, valid=valid, config=config)
    assert report.valid_losses is not None
    assert report.final_valid_mse == min(report.valid_losses)
    assert report.valid_losses[report.best_epoch] == min(report.valid_losses)


def test_divergence_error_carries_location():
    # the offending row must be named: row 0 stays finite for 5 cubic
    # steps while row 1 overflows
    model = TmpnnModel.create(1, 1, order=3, steps=5, standardize=False)
    model.map.delta = model.map.delta + 1.0
    with pytest.raises(DivergenceError) as err:
        predict(model, np.array([[0.1], [50.0]]))
    assert err.value.step is not None
    assert err.value.row == 1
    # the state is that row's input to the map application that overflowed
    _, trajectory = forward(replace(model, steps=err.value.step - 1), [50.0])
    np.testing.assert_array_equal(err.value.state, trajectory[-1])


def test_divergence_beyond_the_first_block_names_the_global_row():
    model = TmpnnModel.create(1, 1, order=3, steps=5, standardize=False)
    model.map.delta = model.map.delta + 1.0
    C = _block_rows(model.basis)
    X = np.full((2 * C + 1, 1), 0.1)
    bad = C + 7
    X[bad] = 50.0
    with pytest.raises(DivergenceError) as err:
        predict(model, X)
    assert err.value.row == bad
    assert f"batch row {bad})" in str(err.value)
    _, trajectory = forward(replace(model, steps=err.value.step - 1), [50.0])
    np.testing.assert_array_equal(err.value.state, trajectory[-1])


def test_divergence_names_the_earliest_step_not_the_first_row():
    # the pass is checked once at its end; the scan must then report the
    # earliest map application that overflowed in the first bad block and
    # that step's first row, not the first row that is bad at the end,
    # nor a row of a later block that overflowed sooner
    model = TmpnnModel.create(1, 1, order=3, steps=5, standardize=False)
    model.map.delta = model.map.delta + 1.0
    X = np.full((2 * _block_rows(model.basis) + 1, 1), 0.1)
    X[1] = 1e4     # overflows at step 4
    X[3] = 1e50    # overflows at step 2
    X[-1] = 1e200  # overflows at step 1, in the last block
    for row, step in ((1, 4), (3, 2), (-1, 1)):
        with pytest.raises(DivergenceError) as err:
            predict(model, X[[row]])
        assert err.value.step == step
    with pytest.raises(DivergenceError) as err:
        predict(model, X)
    assert (err.value.step, err.value.row) == (2, 3)
    assert "map application 2 (batch row 3)" in str(err.value)
    _, trajectory = forward(replace(model, steps=1), X[3])
    np.testing.assert_array_equal(err.value.state, trajectory[-1])


def test_prediction_divergence_names_no_learning_rate():
    # no learning rate applies at prediction: the error says where the
    # trajectory overflowed and nothing more
    model = TmpnnModel.create(1, 1, order=3, steps=5, standardize=False)
    model.map.delta = model.map.delta + 1.0
    # a scale of 0.03 takes 1e308 past float64: the scaling used to warn
    # "overflow encountered in divide", and the error blamed the map
    scaled = TmpnnModel.create(1, 1, order=3, steps=5)
    scaled.scaler = Scaler(mean=[0.05], scale=[0.03])
    start = "a standardized feature overflows float64 in the start state"
    for call, fragment in (
            (lambda: predict(model, np.array([[50.0]])),
             "map application {step} (batch row 0)"),
            (lambda: predict(scaled, np.array([[0.5], [1e308]])),
             start + " (batch row 1)"),
            (lambda: forward(scaled, [1e308]), start + " (batch row 0)")):
        with pytest.raises(DivergenceError) as err:
            call()
        message = str(err.value)
        assert fragment.format(step=err.value.step) in message
        assert (err.value.step == 0) == (fragment.startswith(start))
        assert "learning rate" not in message


def test_non_finite_input_is_a_value_error_naming_row_and_column():
    # a NaN feature is bad input, not a divergence: the error names where
    # it is instead of advising a smaller learning rate
    model = TmpnnModel.create(3, 1, order=2, steps=2, standardize=False)
    X = np.zeros((4, 3))
    X[2, 1] = np.nan
    X[3, 0] = np.inf
    with pytest.raises(ValueError, match="row 2, column 1"):
        predict(model, X)
    with pytest.raises(ValueError, match="row 0, column 2"):
        forward(model, [0.0, 1.0, -np.inf])
    # forward's own float conversion used to raise numpy's OverflowError
    with pytest.raises(ValueError,
                       match="^X holds an int beyond the float range$"):
        forward(model, [0.0, 1.0, 10 ** 400])
    # a 3-D array whose second axis has the width used to pass the width
    # check and fail in numpy's broadcasting
    with pytest.raises(ValueError, match=r"2-D table.*shape \(4, 3, 1\)"):
        predict(model, np.zeros((4, 3, 1)))


def test_training_divergence_aborts_with_guidance():
    rng = np.random.default_rng(12)
    X = rng.uniform(50.0, 100.0, size=(32, 1))
    data = Dataset(X, X, ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=3, steps=5, standardize=False)
    model.map.delta = model.map.delta + 100.0
    with pytest.raises(TrainingDivergedError) as err:
        fit(model, data, config=TrainConfig(epochs=3, batch_size="full"))
    assert "learning rate" in str(err.value)


def test_divergence_recovery_halves_rate_and_continues():
    # one poisoned outlier row diverges some batches; training must survive
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, size=(63, 1))
    X[0, 0] = 1e8
    data = Dataset(X, np.zeros((63, 1)), ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=3, steps=4, standardize=False)
    model.map.delta[:, :] = model.map.delta + 0.5
    report = fit(model, data, config=TrainConfig(epochs=2, batch_size=21,
                                                 shuffle_seed=0))
    assert report.diverged_steps > 0
    assert report.epochs_run == 2
    # the poisoned row still diverges on the final full pass; the report
    # says so instead of the fit call failing
    assert np.isinf(report.final_train_mse)


def test_a_non_finite_loss_is_a_skipped_step_that_warns_nothing():
    # the batches holding row 0 overflow in the loss only, not in the
    # forward pass: each is one skipped step, and the final MSE is inf
    # without an overflow warning from the bookkeeping pass
    X = np.random.default_rng(16).uniform(-1, 1, size=(63, 1))
    Y = 0.5 * X
    Y[0] = 1e160
    data = Dataset(X, Y, ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit(model, data, config=TrainConfig(epochs=3, batch_size=21))
    assert report.diverged_steps == 3
    assert report.final_train_mse == np.inf
    with pytest.raises(DivergenceError, match="non-finite"):
        loss_and_gradient(model, data.take(np.arange(21)))
    # rows 0-3 have finite losses whose sum overflows (rows 4 and 5 overflow
    # alone): each epoch's mean is inf, with no overflow warning
    X = np.arange(6.0)[:, None] / 10
    Y = 1.3e154 * (1 + 0.01 * np.arange(6.0))[:, None]
    model = TmpnnModel.create(1, 1, order=2, steps=2, standardize=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit(model, Dataset(X, Y, ["a"], ["y"]),
                     config=TrainConfig(epochs=2, batch_size=1))
    assert report.train_losses == [np.inf, np.inf]
    assert report.diverged_steps == 4


def test_scaler_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="scale"):
        Scaler(mean=[0.0], scale=[np.inf])
    with pytest.raises(ValueError, match="^scale must hold positive numbers$"):
        Scaler(mean=[0.0, 0.0], scale=[1.0, 0.0])
    with pytest.raises(ValueError, match="mean"):
        Scaler(mean=[np.nan], scale=[1.0])


def test_scaler_fit_names_a_column_whose_spread_overflows():
    # finite values whose squares overflow: std is inf, which used to warn
    # "overflow encountered in square" and fail on the scale check
    X = np.array([[0.0, 1e200], [1.0, -1e200], [2.0, 3e199], [3.0, 0.0]])
    data = Dataset(X, np.zeros((4, 1)), ["a", "b"], ["y"])
    model = TmpnnModel.create(2, 1, order=2, steps=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="column 1 .*spread overflows float64"):
            Scaler.fit(X)
        with pytest.raises(ValueError,
                           match="column 1 .*spread overflows float64"):
            fit(model, data, config=TrainConfig(epochs=1))
    assert model.scaler is None


def test_model_rejects_non_finite_parameters():
    args = dict(n_features=1, n_targets=1, n_latent=0, steps=2,
                map=identity_weights(2, 2))
    with pytest.raises(ValueError, match="init_state"):
        TmpnnModel(**args, init_state=[np.nan])
    with pytest.raises(ValueError, match="reg_l1"):
        TmpnnModel(**args, init_state=[0.0], reg_l1=np.nan)
    with pytest.raises(ValueError, match="reg_l2"):
        TmpnnModel(**args, init_state=[0.0], reg_l2=np.inf)


def test_model_rejects_a_scaler_of_the_wrong_width():
    # it used to fail only at predict, with numpy's broadcast error
    with pytest.raises(ValueError, match="scaler"):
        TmpnnModel(n_features=1, n_targets=1, n_latent=0, steps=2,
                   map=identity_weights(2, 2), init_state=[0.0],
                   scaler=Scaler(mean=[0.0, 0.0], scale=[1.0, 1.0]))


@pytest.mark.parametrize("field,value", [
    ("n_features", 2.0),
    ("n_features", True),
    ("n_targets", 1.0),
    ("n_targets", True),
    ("n_latent", 1.0),
    ("n_latent", True),
    ("steps", 2.5),
    ("steps", True),
    ("steps", "3"),
])
def test_model_rejects_a_size_that_is_not_an_int(field, value):
    # each used to construct, or to fail with another error, in create or
    # later in predict
    sizes = dict(n_features=2, n_targets=1, n_latent=0, steps=2)
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        TmpnnModel.create(**{**sizes, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        TmpnnModel(**{**sizes, field: value}, map=identity_weights(3, 2),
                   init_state=[0.0])


def test_model_accepts_numpy_integer_sizes():
    model = TmpnnModel.create(np.int64(2), np.int32(1), n_latent=np.int64(1),
                              steps=np.int16(3), standardize=False)
    assert predict(model, np.ones((4, 2))).shape == (4, 1)


def test_validation_errors():
    model = TmpnnModel.create(2, 1, order=2, steps=2)
    data = Dataset(np.zeros((4, 3)), np.zeros((4, 1)), list("abc"), ["y"])
    with pytest.raises(ValueError):
        fit(model, data)
    with pytest.raises(ValueError):
        loss_and_gradient(model, data)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size="half")
    with pytest.raises(ValueError):
        TmpnnModel.create(2, 1, order=2, steps=2, init="random")
    with pytest.raises(ValueError):
        TmpnnModel(n_features=2, n_targets=1, n_latent=0, steps=2,
                   map=identity_weights(4, 2), init_state=np.zeros(1))
    with pytest.raises(ValueError):
        TmpnnModel(n_features=2, n_targets=1, n_latent=0, steps=2,
                   map=identity_weights(3, 2), init_state=np.zeros(2))
    with pytest.raises(ValueError, match="single feature vector"):
        forward(model, np.zeros((1, 2)))


@pytest.mark.parametrize("early_stop,fragment", [
    ((0, 0.0), "patience must be an int >= 1"),
    ((2.0, 0.0), "patience must be an int >= 1"),
    ((True, 0.0), "patience must be an int >= 1"),
    ((5, -0.1), "min_delta must be finite and >= 0"),
    ((5, float("nan")), "min_delta must be finite and >= 0"),
    ((5, float("inf")), "min_delta must be finite and >= 0"),
    ((5, "0"), "min_delta must be finite and >= 0"),
    ((5,), "pair"),
    (5, "pair"),
])
def test_train_config_rejects_a_malformed_early_stop(early_stop, fragment):
    with pytest.raises(ValueError, match=fragment):
        TrainConfig(early_stop=early_stop)


@pytest.mark.parametrize("field,value", [
    ("epochs", 2.5),
    ("epochs", True),
    ("epochs", "3"),
    ("batch_size", 2.5),
    ("batch_size", True),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("learning_rate", "0.1"),
    ("shuffle_seed", -1),
    ("shuffle_seed", 1.5),
    ("shuffle_seed", None),
])
def test_train_config_rejects_a_malformed_field(field, value):
    # each used to be accepted, or to fail inside fit with another error
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_scalars():
    config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(16),
                         learning_rate=np.float32(0.01),
                         shuffle_seed=np.uint8(3))
    assert config.batch_size == 16 and config.shuffle_seed == 3


def test_train_config_accepts_a_well_formed_early_stop():
    assert TrainConfig(early_stop=(1, 0)).early_stop == (1, 0)
    assert TrainConfig(early_stop=(np.int64(3), 1e-6)).early_stop[0] == 3


def test_early_stop_without_a_validation_set_is_an_error():
    # it used to train every epoch and never stop
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    data = Dataset(np.linspace(-1, 1, 8)[:, None], np.zeros((8, 1)),
                   ["x"], ["y"])
    before = model.map.delta.copy()
    with pytest.raises(ValueError, match="validation set"):
        fit(model, data, config=TrainConfig(epochs=3, early_stop=(2, 0.0)))
    np.testing.assert_array_equal(model.map.delta, before)


def test_order_is_read_from_the_map():
    # one source for the order: a model cannot be built with an order its
    # map does not have, so save_model cannot write a file load_model rejects
    model = TmpnnModel.create(2, 1, order=3, steps=2)
    assert model.order == model.map.order == 3
    with pytest.raises(TypeError):
        TmpnnModel(n_features=1, n_targets=1, n_latent=0, order=3, steps=2,
                   map=identity_weights(2, 2), init_state=np.zeros(1))


def test_perturbed_init_is_seeded_noise_around_identity():
    a = TmpnnModel.create(2, 1, order=2, steps=2, init="perturbed", seed=5)
    b = TmpnnModel.create(2, 1, order=2, steps=2, init="perturbed", seed=5)
    c = TmpnnModel.create(2, 1, order=2, steps=2, init="perturbed", seed=6)
    np.testing.assert_array_equal(a.map.delta, b.map.delta)
    assert np.any(a.map.delta != c.map.delta)
    spread = np.abs(a.map.delta)
    assert 0 < spread.max() < 0.1


def test_fit_reports_losses_per_epoch():
    rng = np.random.default_rng(14)
    X = rng.uniform(-1, 1, size=(32, 1))
    data = Dataset(X, 0.5 * X, ["x"], ["y"])
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    report = fit(model, data, valid=data,
                 config=TrainConfig(epochs=25, batch_size="full"))
    assert len(report.train_losses) == 25
    assert len(report.valid_losses) == 25
    assert report.epochs_run == 25
    assert report.final_valid_mse == metric_mse(data.Y, predict(model, data.X))
