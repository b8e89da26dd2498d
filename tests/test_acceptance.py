"""The ten acceptance checks, one test per criterion.

Each criterion prints (and records for the terminal summary) a single line

    ACCEPTANCE NN PASS|FAIL|SKIP name (detail)

so a full run doubles as a checklist.  The two UCI-dataset criteria skip
with placement instructions when the files are absent; everything else is
self-contained and seeded.  Training configurations and tolerances are
pinned; see the module README for expected runtimes.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import record_acceptance

from tmpnn import (Dataset, TmpnnModel, TrainConfig, build_basis, extract_ode,
                   fit, gen_friedman1, gen_noisy_linear, integrate_reference,
                   load_csv, loss_and_gradient, metric_mse, metric_r2,
                   predict, raise_order, rebuild_map, split_random)
from tmpnn.basis import eval_monomials_batch
from tmpnn.model import _forward_states


def _check(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name} ({detail})"
    print(line)
    record_acceptance(line)
    assert ok, line


def _skip(num, name, reason):
    line = f"ACCEPTANCE {num:02d} SKIP {name} ({reason})"
    print(line)
    record_acceptance(line)
    pytest.skip(line)


def _find_data_file(*names):
    roots = []
    env = os.environ.get("TMPNN_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for name in names:
            candidate = root / name
            if candidate.exists():
                return candidate
    return None


def _train(data, *, order, steps, epochs, lr=0.002, batch=256, seed=0,
           standardize=True, reg_l2=0.0):
    model = TmpnnModel.create(data.n_features, data.n_targets, order=order,
                              steps=steps, standardize=standardize,
                              reg_l2=reg_l2)
    fit(model, data, config=TrainConfig(epochs=epochs, batch_size=batch,
                                        learning_rate=lr, shuffle_seed=seed))
    return model


def test_01_friedman_interpolation():
    data = gen_friedman1(10000, seed=1)
    train, test = split_random(data, 0.25, seed=1)
    scores = {}
    for order in (3, 2):
        model = _train(train, order=order, steps=5, epochs=300, seed=1)
        scores[order] = metric_r2(test.Y, predict(model, test.X))
    _check(1, "friedman1-interpolation",
           scores[3] >= 0.98 and scores[2] >= 0.98,
           f"test r2 k=3: {scores[3]:.5f}, k=2: {scores[2]:.5f}, need >= 0.98")


def test_02_friedman_unimportant_features():
    data = gen_friedman1(10000, n_unimportant=5, seed=2)
    train, test = split_random(data, 0.25, seed=2)
    model = _train(train, order=3, steps=5, epochs=300, lr=0.004, seed=2)
    r2 = metric_r2(test.Y, predict(model, test.X))
    _check(2, "friedman1-unimportant-features", r2 >= 0.95,
           f"test r2 with 5 irrelevant features: {r2:.5f}, need >= 0.95")


def test_03_airfoil():
    path = _find_data_file("airfoil_self_noise.dat", "airfoil.dat",
                           "airfoil.csv")
    if path is None:
        _skip(3, "airfoil-random-splits",
              "place the UCI airfoil file at data/airfoil_self_noise.dat "
              "or set TMPNN_DATA_DIR")
    data = load_csv(path, 1)
    assert data.n_features == 5 and data.n_samples == 1503
    scores = []
    for seed in range(10):
        train, test = split_random(data, 0.25, seed=seed)
        model = _train(train, order=3, steps=5, epochs=800, seed=seed)
        scores.append(metric_r2(test.Y, predict(model, test.X)))
    mean = float(np.mean(scores))
    _check(3, "airfoil-random-splits", mean >= 0.85,
           f"mean test r2 over 10 splits: {mean:.4f} "
           f"(min {min(scores):.4f}), need >= 0.85")


def test_04_noisy_linear_extrapolation():
    data = gen_noisy_linear(200, seed=4)
    model = _train(data, order=5, steps=3, epochs=1000, batch="full",
                   seed=4, standardize=False)
    mse = metric_mse(data.Y, predict(model, data.X))
    noise_var = 0.25 ** 2 / 3.0
    ratio = mse / noise_var

    # unregularized 41st-order least-squares polynomial on the same data
    x, y = data.X[:, 0], data.Y[:, 0]
    coeffs = np.linalg.lstsq(np.vander(x, 42, increasing=True), y,
                             rcond=None)[0]
    details = []
    ok = 0.8 <= ratio <= 2.0
    for probe in (1.5, -1.5):
        model_err = abs(predict(model, [[probe]])[0, 0] - probe)
        ls_err = abs(np.vander([probe], 42, increasing=True)[0] @ coeffs
                     - probe)
        ok = ok and model_err < ls_err
        details.append(f"|err({probe:+.1f})| {model_err:.3g} vs "
                       f"LS41 {ls_err:.3g}")
    _check(4, "noisy-linear-extrapolation", ok,
           f"train mse/noise-var {ratio:.3f} in [0.8, 2.0]; "
           + "; ".join(details))


def test_05_yacht_extrapolation():
    path = _find_data_file("yacht_hydrodynamics.data", "yacht.data",
                           "yacht.csv")
    if path is None:
        _skip(5, "yacht-extrapolation",
              "place the UCI yacht file at data/yacht_hydrodynamics.data "
              "or set TMPNN_DATA_DIR")
    data = load_csv(path, 1)
    assert data.n_features == 6 and data.n_samples == 308
    # froude number is the sixth feature column; test rows lie above 0.4
    fn = data.X[:, 5]
    idx = np.arange(data.n_samples)
    train = data.take(idx[fn <= 0.4])
    test = data.take(idx[fn > 0.4])
    model = _train(train, order=3, steps=5, epochs=3000, batch="full",
                   seed=5)
    r2 = metric_r2(test.Y, predict(model, test.X))
    _check(5, "yacht-extrapolation", r2 >= 0.5,
           f"test r2 on rows with froude number > 0.4: {r2:.4f}, "
           f"need >= 0.5 ({test.n_samples} test rows)")


def _loss_only(model, X, Y):
    pred = predict(model, X)
    loss = float(np.mean((pred - Y) ** 2))
    if model.reg_l1 > 0:
        loss += model.reg_l1 * float(np.sum(np.abs(model.map.W)))
    if model.reg_l2 > 0:
        loss += model.reg_l2 * float(np.sum(model.map.W ** 2))
    return loss


def test_06_gradient_check():
    rng = np.random.default_rng(6)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        latent = int(rng.integers(0, 2))
        order = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 5))
        model = TmpnnModel.create(
            n, m, n_latent=latent, order=order, steps=steps,
            standardize=False, init_trainable=bool(rng.integers(0, 2)),
            reg_l1=float(rng.choice([0.0, 1e-3])),
            reg_l2=float(rng.choice([0.0, 1e-3])))
        model.map.delta = rng.normal(0.0, 0.15, model.map.delta.shape)
        model.init_state = rng.normal(0.0, 0.3, model.init_state.shape)
        X = rng.uniform(-0.8, 0.8, size=(6, n))
        Y = rng.uniform(-1.0, 1.0, size=(6, m))
        batch = Dataset(X, Y, [f"x{i}" for i in range(n)],
                        [f"y{j}" for j in range(m)])

        _, grads = loss_and_gradient(model, batch)
        arrays = [("delta", model.map.delta, grads["delta"])]
        if model.init_trainable:
            arrays.append(("init_state", model.init_state,
                           grads["init_state"]))
        for _, arr, analytic in arrays:
            flat, aflat = arr.ravel(), analytic.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = _loss_only(model, X, Y)
                flat[i] = orig - h
                lo = _loss_only(model, X, Y)
                flat[i] = orig
                fd = (hi - lo) / (2.0 * h)
                rel = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]), abs(fd))
                worst = max(worst, rel)
    _check(6, "gradient-check", worst < 1e-5,
           f"worst rel. error over 100 random configurations, every "
           f"trainable parameter: {worst:.3e}, need < 1e-5")


def test_07_reduction_equivalences():
    rng = np.random.default_rng(7)
    worst_poly = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        order = int(rng.integers(1, 4))
        model = TmpnnModel.create(n, m, order=order, steps=1,
                                  standardize=False)
        model.map.delta = rng.normal(0.0, 0.5, model.map.delta.shape)
        X = rng.uniform(-1, 1, size=(8, n))
        pred = predict(model, X)
        # direct reduced-basis evaluation of the same coefficients
        Z0 = model.initial_state(X)
        direct = eval_monomials_batch(model.basis, Z0) @ model.map.W
        direct = direct[:, n:n + m]
        worst_poly = max(worst_poly, float(np.max(
            np.abs(pred - direct) / np.maximum(1.0, np.abs(direct)))))

    worst_affine = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        model = TmpnnModel.create(n, m, order=1, steps=int(rng.integers(1, 6)),
                                  standardize=False)
        model.map.delta = rng.normal(0.0, 0.3, model.map.delta.shape)
        u = rng.uniform(-1, 1, n)
        v = rng.uniform(-1, 1, n)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        zero = predict(model, np.zeros((1, n)))[0]
        lhs = predict(model, (a * u + b * v)[None, :])[0]
        rhs = (a * (predict(model, u[None, :])[0] - zero)
               + b * (predict(model, v[None, :])[0] - zero) + zero)
        worst_affine = max(worst_affine, float(np.max(
            np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    _check(7, "reduction-equivalences",
           worst_poly <= 1e-12 and worst_affine <= 1e-8,
           f"steps=1 vs direct polynomial rel {worst_poly:.2e} (<= 1e-12); "
           f"order-1 superposition rel {worst_affine:.2e} (<= 1e-8)")


def test_08_ode_round_trip_and_order_raising():
    rng = np.random.default_rng(8)
    ok = True
    notes = []

    for steps in (1, 3, 5, 7, 10):
        model = TmpnnModel.create(2, 1, order=2, steps=steps,
                                  standardize=False)
        model.map.delta = rng.normal(0.0, 0.2, model.map.delta.shape)
        rebuilt = rebuild_map(extract_ode(model), steps)
        ok = ok and np.array_equal(rebuilt.delta, model.map.delta)
    notes.append("extract-rebuild exact at p in {1,3,5,7,10}")

    for p, p_bar in ((3, 6), (5, 10), (8, 16), (5, 20)):
        model = TmpnnModel.create(2, 1, order=3, steps=p, standardize=False)
        model.map.delta = rng.normal(0.0, 0.2, model.map.delta.shape)
        raised = raise_order(model, p_bar)
        ok = ok and np.array_equal(extract_ode(raised).A,
                                   extract_ode(model).A)
    notes.append("raise preserves the ODE exactly at p doublings")

    identity = TmpnnModel.create(2, 1, order=3, steps=5)
    raised = raise_order(identity, 9)
    ok = ok and np.array_equal(raised.map.delta, identity.map.delta)
    ok = ok and not raised.map.delta.any()
    notes.append("identity fixed point")

    _check(8, "ode-round-trip-and-order-raising", ok, "; ".join(notes))


def test_09_euler_convergence():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 200)
    data = Dataset(x[:, None], (0.3 * np.sin(x))[:, None], ["x"], ["y"])
    model = _train(data, order=2, steps=10, epochs=500, batch="full",
                   seed=9, reg_l2=1e-4)
    raised = raise_order(model, 20)
    ode = extract_ode(model)

    Z0 = model.initial_state(data.X[:50])
    ref = np.array([integrate_reference(ode, z, 1000) for z in Z0])
    err_p = np.linalg.norm(_forward_states(model, Z0)[-1] - ref, axis=1)
    err_2p = np.linalg.norm(_forward_states(raised, Z0)[-1] - ref, axis=1)
    ratio = float(err_p.mean() / err_2p.mean())
    _check(9, "euler-convergence", 1.5 <= ratio <= 3.0,
           f"err(p)/err(2p) over 50 probes: {ratio:.3f}, need in [1.5, 3.0]")


def test_10_parameter_count():
    ok = True
    checked = 0
    for n in range(1, 5):
        for m in range(1, 5):
            for latent in range(0, 5):
                d = n + m + latent
                if d > 6:
                    continue
                for order in range(1, 6):
                    model = TmpnnModel.create(n, m, n_latent=latent,
                                              order=order, steps=3)
                    expected = d * sum(math.comb(d - 1 + q, d - 1)
                                       for q in range(order + 1))
                    ok = ok and model.map.delta.size == expected
                    ok = ok and build_basis(d, order).size * d == expected
                    checked += 1
    _check(10, "parameter-count", ok,
           f"stored weight count matches the closed form for "
           f"{checked} (n, m, l, k) combinations")
