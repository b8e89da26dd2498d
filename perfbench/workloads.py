"""The four workloads: train, predict, cli and verify.

Each is a closed loop from one caller: the next request is sent only after
the previous one returned.  Inputs come from the run's seed and are made
here, with a Friedman-1 generator of the benchmark's own, so tmpnn sees
only the generated rows and files.

A workload returns an Outcome.  Its gated metrics are the same four names
for every workload (see run.py for what each means per workload); figures
that are reported but not gated go into Outcome.figures.  Output checks
that call tmpnn again are deferred (Outcome.defer) and run by the caller
after the workload returns, so in the traced run they run after the tracer
is removed and do not count as work of the layers.

When ctx.fixed is set (the traced run), every loop runs a fixed number of
rounds instead of running until the time budget is spent, so that counts
repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import stats

clock = time.perf_counter

# The train recipe (n=5, m=1, k=3, p=5): Friedman-1, 10k rows, 25% held out.
N_ROWS = 10_000
VALID_FRACTION = 0.25
ORDER, STEPS = 3, 5
BATCH, LR = 256, 0.002
R2_TARGET = 0.99
# Epoch budget of the train workload.  In a sizing run on seeds 1-28 the
# held-out R^2 first reached 0.99 between epoch 109 and 427.
TRAIN_EPOCHS = 600
TRACED_TRAIN_EPOCHS = 40
# The model behind predict and cli: the train recipe, cut short.
# Their cost depends on the weights' shapes, not on how well they fit.
FIXTURE_EPOCHS = 10
# train times its set-up (a 60 ms CSV load) this many times before its
# long fit and again after it (see _Timed).  The other workloads set up
# (train a model, 0.3-0.8 s) again every few seconds of their measured
# loop: predict every round (about 3 s), cli every CLI_SETUP_EVERY rounds
# (about 3 s each), verify every VERIFY_SETUP_EVERY rounds (about 0.2 s).
TRAIN_SETUPS_EACH_SIDE = 16
CLI_SETUP_EVERY = 2
VERIFY_SETUP_EVERY = 8

BULK_ROWS = 100_000
BULK_PER_ROUND = 2
ROW1_PER_ROUND = 3000
BATCH256_PER_ROUND = 400
CHECK_ROWS = 256
HELP_PER_ROUND = 4
CHILD_TIMEOUT_S = 120
PROBES_PER_ROUND = 3
# probes of the first rounds rechecked with twice the RK4 steps
RECHECK_ROUNDS = 4
RK4_STEPS = 1000
# verify's model: the acceptance-09 recipe
SINE_ROWS, SINE_ORDER, SINE_STEPS, SINE_L2, SINE_EPOCHS = 200, 2, 10, 1e-4, 500
TRACED_ROUNDS = 2
MIN_ROUNDS = 3

PREDICT_REL_TOL = 1e-12
RK4_AGREE_TOL = 1e-9

# rng streams, so each kind of input has its own sequence under one seed
_TRAIN_DATA, _ROWS, _PROBES, _SINE_DATA = 1, 2, 3, 4


@dataclass
class Context:
    root: str
    src: str
    work: str
    seed: int
    seconds: float
    fixed: bool = False

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


@dataclass
class Outcome:
    metrics: dict
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    # (name, value, unit): figures printed and recorded but not gated
    figures: list = field(default_factory=list)
    # wall time of the workload without its deferred checks, the base for
    # the tracing overhead
    timed_s: float = 0.0
    # checks that call tmpnn, run by run_checks() once the workload returned
    deferred: list = field(default_factory=list)
    # name -> timed samples in seconds, in the order taken (full record only)
    samples: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def defer(self, fn) -> None:
        """Queue fn(self), a check that calls tmpnn, for run_checks()."""
        self.deferred.append(fn)

    def run_checks(self) -> None:
        while self.deferred:
            self.deferred.pop(0)(self)

    def figure(self, name: str, value, unit: str) -> None:
        self.figures.append((name, value, unit))

    def timings(self, name: str, samples_s, unit: str = "ms") -> None:
        """Median, p99 and the highest percentile with ten samples beyond."""
        scale = 1e3 if unit == "ms" else 1.0
        self.samples[name] = list(samples_s)
        tail = stats.tail_percentile(len(samples_s)) or 50.0
        for q in sorted({50.0, tail} | ({99.0} if tail >= 99.0 else set())):
            self.figure(f"{name}_p{q:g}_{unit}",
                        float(np.percentile(samples_s, q)) * scale, unit)
        self.figure(f"{name}_samples", len(samples_s), "count")


def _lib():
    import tmpnn.cli
    import tmpnn.data
    import tmpnn.errors
    import tmpnn.io
    import tmpnn.model
    import tmpnn.odeview
    return tmpnn


def _rounds(ctx: Context):
    if ctx.fixed:
        yield from range(TRACED_ROUNDS)
        return
    deadline = clock() + ctx.seconds
    i = 0
    while i < MIN_ROUNDS or clock() < deadline:
        yield i
        i += 1


def _peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def friedman_features(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(n, 5))


def friedman_target(X: np.ndarray) -> np.ndarray:
    return (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3] + 5.0 * X[:, 4])


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """Shortest round-trip floats, so the file holds exactly these values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(",".join(map(repr, r)) for r in rows.tolist()))
        fh.write("\n")


def read_prediction_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


def reference_predict(model, X: np.ndarray) -> np.ndarray:
    """The model's Euler steps evaluated from basis.exponents by plain powers.

    Independent of tmpnn's recursive monomial evaluation and forward pass.
    """
    n, m = model.n_features, model.n_targets
    z = np.empty((X.shape[0], model.dim))
    z[:, :n] = X if model.scaler is None else (X - model.scaler.mean) / model.scaler.scale
    z[:, n:] = model.init_state
    exps = model.basis.exponents
    for _ in range(model.steps):
        phi = np.prod(z[:, None, :] ** exps[None, :, :], axis=2)
        z = z + phi @ model.map.delta
    return z[:, n:n + m]


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _training_csv(ctx: Context) -> str:
    X = friedman_features(ctx.rng(_TRAIN_DATA), N_ROWS)
    path = ctx.path("train.csv")
    write_csv(path, ["x1", "x2", "x3", "x4", "x5", "y"],
              np.column_stack([X, friedman_target(X)]))
    return path


def _load_split(T, path: str, seed: int):
    data = T.data.load_csv(path, ["y"])
    return T.data.split_random(data, VALID_FRACTION, seed=seed)


def _new_model(T):
    return T.model.TmpnnModel.create(5, 1, order=ORDER, steps=STEPS)


def _recipe(T, epochs: int, seed: int):
    return T.model.TrainConfig(epochs=epochs, batch_size=BATCH,
                               learning_rate=LR, shuffle_seed=seed)


class _Timed:
    """Timed runs of a workload's set-up, spread over the workload.

    The gated figure is the fastest run for train, whose set-up is a short
    CSV load (about 40 ms), and the median run for the others, whose set-up
    trains a model (0.3-0.7 s).  Over four ten-seed passes on a shared
    2-vCPU VM the fastest of train's 32 loads spread 0.12-0.20 against
    0.08-0.38 for their median, and the median of the model set-ups
    0.04-0.18 against 0.07-0.30 for the fastest.
    """

    def __init__(self, fn):
        self.fn = fn
        self.times: list[float] = []

    def __call__(self, repeats: int = 1):
        """Run fn repeats times; return the last result."""
        result = None
        for _ in range(repeats):
            t = clock()
            result = self.fn()
            self.times.append(clock() - t)
        return result


def _fixture(T, ctx: Context, data_csv: str):
    """Train the recipe for FIXTURE_EPOCHS, save the model and load it back."""
    train, valid = _load_split(T, data_csv, ctx.seed)
    model = _new_model(T)
    T.model.fit(model, train, valid, _recipe(T, FIXTURE_EPOCHS, ctx.seed))
    path = ctx.path("model.json")
    T.io.save_model(model, path, feature_names=train.feature_names,
                    target_names=train.target_names)
    loaded, _ = T.io.load_model(path)
    return loaded, path


def _check_round_trip(T, ctx: Context, out: Outcome, model, X) -> None:
    path = ctx.path("round_trip.json")
    T.io.save_model(model, path)
    again, _ = T.io.load_model(path)
    out.check("save_load_bit_identical",
              np.array_equal(T.model.predict(model, X),
                             T.model.predict(again, X)),
              f"{X.shape[0]} rows")


def train(ctx: Context) -> Outcome:
    """Fit the train recipe for a fixed epoch budget, then save and reload it.

    One fit is the measured operation: it cannot be cut at a time budget
    without changing what it computes, so this workload ignores --seconds.
    """
    t_start = clock()
    T = _lib()
    data_csv = _training_csv(ctx)
    # on a fixed schedule (traced run), once before the fit only
    before, after = (1, 0) if ctx.fixed else (TRAIN_SETUPS_EACH_SIDE,) * 2
    setup = _Timed(lambda: _load_split(T, data_csv, ctx.seed))
    train_set, valid = setup(before)
    model = _new_model(T)
    epochs = TRACED_TRAIN_EPOCHS if ctx.fixed else TRAIN_EPOCHS

    t = clock()
    report = T.model.fit(model, train_set, valid, _recipe(T, epochs, ctx.seed))
    fit_s = clock() - t
    path = ctx.path("trained.json")
    T.io.save_model(model, path, feature_names=train_set.feature_names,
                    target_names=train_set.target_names)
    loaded, _ = T.io.load_model(path)
    setup(after)

    rows = report.epochs_run * train_set.n_samples
    out = Outcome(
        # one measurement read two ways: rows_per_s = rows * 1e3 / latency_ms
        metrics={"setup_s": min(setup.times),
                 "latency_ms": fit_s / report.epochs_run * 1e3,
                 "rows_per_s": rows / fit_s,
                 "peak_rss_mb": _peak_rss_mb()},
        attempted=report.epochs_run * math.ceil(train_set.n_samples / BATCH),
        failed=report.diverged_steps,
        timed_s=clock() - t_start)
    out.samples["setup"] = setup.times
    variance = float(np.var(valid.Y))
    needed = stats.epochs_to_r2(report.valid_losses, variance, R2_TARGET)
    out.figure("train.time_to_r2_s",
               stats.time_to_r2(fit_s, report.valid_losses, variance, R2_TARGET),
               "s")
    out.figure("train.epochs_to_r2", needed, "epochs")
    out.figure("train.fit_s", fit_s, "s")
    out.figure("train.epochs_run", report.epochs_run, "epochs")
    out.figure("train.final_valid_r2", 1.0 - report.valid_losses[-1] / variance, "1")
    if not ctx.fixed:
        out.check("r2_reached", needed is not None,
                  f"held-out R^2 >= {R2_TARGET} first at epoch {needed} "
                  f"of {epochs}")
    out.defer(lambda o: o.check(
        "saved_model_bit_identical",
        np.array_equal(T.model.predict(model, valid.X),
                       T.model.predict(loaded, valid.X)),
        f"{valid.n_samples} held-out rows"))
    return out


def predict(ctx: Context) -> Outcome:
    """In-process predict at 1, 256 and 100k rows, interleaved per round."""
    t_start = clock()
    T = _lib()
    data_csv = _training_csv(ctx)
    rng = ctx.rng(_ROWS)
    pool = friedman_features(rng, 64 * 256)
    bulk = friedman_features(rng, BULK_ROWS)
    setup = _Timed(lambda: _fixture(T, ctx, data_csv))
    model, _ = setup()
    Err = T.errors.TmpnnError

    # warm-up, untimed: first-touch allocation at each size
    for X in (pool[:1], pool[:256], bulk):
        T.model.predict(model, X)

    row1, batch256, bulk_s = [], [], []
    checked = []  # (rows, outputs) from the first round
    attempted = failed = 0
    for r in _rounds(ctx):
        if r:
            setup()
        for i in range(BULK_PER_ROUND):
            attempted += 1
            t = clock()
            try:
                Y = T.model.predict(model, bulk)
            except Err:
                failed += 1
                continue
            bulk_s.append(clock() - t)
            if r == 0 and i == 0:
                checked.append((bulk[:CHECK_ROWS], Y[:CHECK_ROWS]))
        for i in range(ROW1_PER_ROUND):
            x = pool[i % len(pool)][None, :]
            attempted += 1
            t = clock()
            try:
                y = T.model.predict(model, x)
            except Err:
                failed += 1
                continue
            row1.append(clock() - t)
            if r == 0 and i < CHECK_ROWS:
                checked.append((x, y))
        for i in range(BATCH256_PER_ROUND):
            Xb = pool[(i % 64) * 256:(i % 64 + 1) * 256]
            attempted += 1
            t = clock()
            try:
                Yb = T.model.predict(model, Xb)
            except Err:
                failed += 1
                continue
            batch256.append(clock() - t)
            if r == 0 and i < 4:
                checked.append((Xb, Yb))

    out = Outcome(
        metrics={"setup_s": statistics.median(setup.times),
                 "latency_ms": min(row1) * 1e3,
                 "rows_per_s": BULK_ROWS / min(bulk_s),
                 "peak_rss_mb": _peak_rss_mb()},
        attempted=attempted, failed=failed, timed_s=clock() - t_start)
    out.samples["setup"] = setup.times
    out.timings("predict.row1", row1)
    out.timings("predict.batch256", batch256)
    out.figure("predict.bulk_rows_per_s", BULK_ROWS / statistics.median(bulk_s),
               "rows/s")
    out.timings("predict.bulk", bulk_s, "s")
    X = np.vstack([x for x, _ in checked])
    got = np.vstack([y for _, y in checked])
    err = _relative_error(got, reference_predict(model, X))
    out.check("matches_reference", err <= PREDICT_REL_TOL,
              f"relative error {err:.3g} over {X.shape[0]} rows "
              f"(tolerance {PREDICT_REL_TOL:g})")
    out.defer(lambda o: _check_round_trip(T, ctx, o, model, pool[:CHECK_ROWS]))
    return out


def cli(ctx: Context) -> Outcome:
    """Fresh `python -m tmpnn.cli` processes: --help and a 100k-row predict.

    On a fixed schedule (traced run) tmpnn.cli.main runs in process instead,
    so its layers can be traced.
    """
    t_start = clock()
    T = _lib()
    data_csv = _training_csv(ctx)
    features = friedman_features(ctx.rng(_ROWS), BULK_ROWS)
    features_csv = ctx.path("features.csv")
    write_csv(features_csv, ["x1", "x2", "x3", "x4", "x5"], features)
    setup = _Timed(lambda: _fixture(T, ctx, data_csv))
    model, model_path = setup()
    out_csv = ctx.path("predictions.csv")
    predict_argv = ["predict", "--model", model_path, "--data", features_csv,
                    "--out", out_csv]
    env = dict(os.environ, PYTHONPATH=ctx.src)

    def run(argv) -> tuple[float, bool]:
        if ctx.fixed:
            t = clock()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = T.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return clock() - t, code == 0
        t = clock()
        proc = subprocess.Popen([sys.executable, "-m", "tmpnn.cli", *argv],
                                cwd=ctx.root, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # wait(timeout) polls with sleeps of up to 50 ms, which would
        # quantize the timing; a watchdog thread bounds the wait instead
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        return clock() - t, code == 0

    cold, predict_s = [], []
    first = first_bytes = None  # the first output; every later file must equal it
    attempted = failed = mismatched = 0
    for r in _rounds(ctx):
        if r and r % CLI_SETUP_EVERY == 0:
            setup()  # rewrites the same model file
        if os.path.exists(out_csv):
            os.remove(out_csv)
        attempted += 1
        wall, ok = run(predict_argv)
        if not ok:
            failed += 1
        else:
            predict_s.append(wall)
            with open(out_csv, "rb") as fh:
                got = fh.read()
            if first is None:
                first, first_bytes = read_prediction_csv(out_csv), got
            else:
                mismatched += got != first_bytes
        for _ in range(HELP_PER_ROUND):
            attempted += 1
            wall, ok = run(["--help"])
            if ok:
                cold.append(wall)
            else:
                failed += 1

    out = Outcome(
        metrics={"setup_s": statistics.median(setup.times),
                 "latency_ms": statistics.mean(cold) * 1e3,
                 "rows_per_s": BULK_ROWS * len(predict_s) / sum(predict_s),
                 "peak_rss_mb": _peak_rss_mb(children=not ctx.fixed)},
        attempted=attempted, failed=failed, timed_s=clock() - t_start)
    out.samples["setup"] = setup.times
    if not ctx.fixed:  # in-process main() calls are not process timings
        out.timings("cli.cold_start", cold, "s")
        out.timings("cli.predict", predict_s, "s")

    def check_output(o: Outcome) -> None:
        same = first is not None and np.array_equal(
            first, T.model.predict(model, features))
        o.check("cli_output_bit_identical", same and mismatched == 0,
                f"{len(predict_s)} output files; the first "
                f"{'equals' if same else 'differs from'} in-process predict, "
                f"{mismatched} of the rest differ from the first")

    out.defer(check_output)
    return out


def _sine_fixture(T, ctx: Context, data_csv: str):
    """Train the acceptance-09 recipe, save the model and load it back."""
    data = T.data.load_csv(data_csv, ["y"])
    model = T.model.TmpnnModel.create(1, 1, order=SINE_ORDER, steps=SINE_STEPS,
                                      reg_l2=SINE_L2)
    T.model.fit(model, data, config=T.model.TrainConfig(
        epochs=SINE_EPOCHS, batch_size="full", shuffle_seed=ctx.seed))
    path = ctx.path("sine_model.json")
    T.io.save_model(model, path)
    loaded, _ = T.io.load_model(path)
    return loaded


def verify(ctx: Context) -> Outcome:
    """Euler at p and 2p against RK4 of the extracted ODE, probe by probe.

    The model is acceptance 09's (y = 0.3 sin x on [-1, 1], k=2, p=10,
    L2 1e-4), not the Friedman recipe: the extracted ODE of Friedman-recipe
    models blows up within the unit horizon from many training states, so
    the reference integration cannot finish there.
    """
    t_start = clock()
    T = _lib()
    x = ctx.rng(_SINE_DATA).uniform(-1.0, 1.0, size=SINE_ROWS)
    data_csv = ctx.path("sine.csv")
    write_csv(data_csv, ["x", "y"], np.column_stack([x, 0.3 * np.sin(x)]))
    rng = ctx.rng(_PROBES)
    setup = _Timed(lambda: _sine_fixture(T, ctx, data_csv))
    model = setup()
    Err = T.errors.TmpnnError

    probe_s, check_s, err_p, err_2p = [], [], [], []
    kept = []  # (ode, start state, RK4 end state) of the first rounds
    attempted = failed = 0
    for r in _rounds(ctx):
        if r and r % VERIFY_SETUP_EVERY == 0:
            setup()
        xs = rng.uniform(-1.0, 1.0, size=(PROBES_PER_ROUND, 1))
        t_check = clock()
        ode = T.odeview.extract_ode(model)
        raised = T.odeview.raise_order(model, 2 * model.steps)
        for x in xs:
            attempted += 1
            t = clock()
            z0 = model.initial_state(x[None, :])[0]
            try:
                z_ref = T.odeview.integrate_reference(ode, z0, n_steps=RK4_STEPS)
            except Err:
                failed += 1
                continue
            _, traj_p = T.model.forward(model, x)
            _, traj_2p = T.model.forward(raised, x)
            probe_s.append(clock() - t)
            err_p.append(float(np.linalg.norm(traj_p[-1] - z_ref)))
            err_2p.append(float(np.linalg.norm(traj_2p[-1] - z_ref)))
            if r < RECHECK_ROUNDS:
                kept.append((ode, z0, z_ref))
        check_s.append(clock() - t_check)

    out = Outcome(
        metrics={"setup_s": statistics.median(setup.times),
                 "latency_ms": statistics.mean(probe_s) * 1e3,
                 "rows_per_s": PROBES_PER_ROUND * len(check_s) / sum(check_s),
                 "peak_rss_mb": _peak_rss_mb()},
        attempted=attempted, failed=failed, timed_s=clock() - t_start)
    out.samples["setup"] = setup.times
    ratio = statistics.mean(err_p) / statistics.mean(err_2p)
    out.figure("verify.check_s", statistics.median(check_s), "s")
    out.samples["verify.check"] = check_s
    out.figure("verify.probes_per_check", PROBES_PER_ROUND, "count")
    out.timings("verify.probe", probe_s)
    out.figure("verify.euler_err_p_mean", statistics.mean(err_p), "1")
    out.figure("verify.euler_err_2p_mean", statistics.mean(err_2p), "1")

    def check_rk4(o: Outcome) -> None:
        worst = 0.0
        for ode, z0, z_ref in kept:
            z_fine = T.odeview.integrate_reference(ode, z0, n_steps=2 * RK4_STEPS)
            worst = max(worst, float(np.linalg.norm(z_ref - z_fine)
                                     / max(1.0, np.linalg.norm(z_fine))))
        o.check("rk4_converged", bool(kept) and worst <= RK4_AGREE_TOL,
                f"{len(kept)} probes, worst {RK4_STEPS}- vs {2 * RK4_STEPS}-step "
                f"relative gap {worst:.3g} (tolerance {RK4_AGREE_TOL:g})")

    out.defer(check_rk4)
    out.check("euler_first_order", 1.5 <= ratio <= 3.0,
              f"err(p)/err(2p) over {len(err_p)} probes: {ratio:.3f}, "
              f"need in [1.5, 3.0]")
    return out


WORKLOADS = {"train": train, "predict": predict, "cli": cli, "verify": verify}
