"""The iterated-map regressor: forward pass, loss gradients, and training.

A model extends each feature vector x with m target slots and l latent
slots (initial values in init_state, zeros by default), applies one shared
polynomial map p times, and reads the target slots of the final state as
the prediction.  Because the p layers share one coefficient matrix, the
composition realizes a polynomial of order up to k^p while the parameter
count stays that of a single order-k map.

Training is plain reverse-mode accumulation through the p applications:
each layer contributes phi(Z_t)^T G_{t+1} to the shared-weight gradient,
and G_t chains G_{t+1} through the layer Jacobian.  The Jacobian of an
order-k polynomial map is a polynomial map of order k-1, so its
coefficients are tabulated once per gradient step and every layer's
Jacobian is one product with the lower-degree monomials.  The optimizer
is Adamax (see optim); a forward pass that overflows is treated as an
exploding step, which is skipped with the learning rate halved for the
rest of the epoch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .basis import MonomialBasis, eval_monomials_batch
from .data import Dataset, metric_mse
from .errors import DivergenceError, TrainingDivergedError
from .optim import AdamaxState, adamax_step
from .taylor_map import TaylorMapWeights, identity_weights


@dataclass
class Scaler:
    """Per-feature affine standardization: x -> (x - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.mean.shape != self.scale.shape or self.mean.ndim != 1:
            raise ValueError("mean and scale must be 1-D arrays of equal length")
        if not np.all(self.scale > 0):
            raise ValueError("all scale entries must be positive")

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        """Mean/std scaler from data; zero-variance columns get scale 1."""
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


@dataclass
class TmpnnModel:
    """A Taylor-map regressor.

    Attributes:
        n_features: width n of the input feature vectors.
        n_targets: number m of predicted values.
        n_latent: number l of extra latent state slots (>= 0).
        steps: number p of map applications.
        map: the shared TaylorMapWeights with dim = n + m + l; its basis
            fixes the polynomial order k (the order property).
        init_state: length m + l initial values of the non-feature slots.
        init_trainable: whether fit() also learns init_state.
        reg_l1, reg_l2: coefficients penalizing the literal weight matrix.
        standardize: whether fit() standardizes features (z-score).
        scaler: standardization parameters, fitted by the first fit() and
            kept by later ones; None before fitting (and always None when
            standardize is off).
    """

    n_features: int
    n_targets: int
    n_latent: int
    steps: int
    map: TaylorMapWeights
    init_state: np.ndarray
    init_trainable: bool = False
    reg_l1: float = 0.0
    reg_l2: float = 0.0
    standardize: bool = True
    scaler: Scaler | None = None

    def __post_init__(self):
        if self.n_features < 1 or self.n_targets < 1 or self.n_latent < 0:
            raise ValueError("need n_features >= 1, n_targets >= 1, n_latent >= 0")
        if self.steps < 1:
            raise ValueError("need steps >= 1")
        if self.map.dim != self.dim:
            raise ValueError(f"map dimension {self.map.dim} does not equal "
                             f"n_features + n_targets + n_latent = {self.dim}")
        if self.reg_l1 < 0 or self.reg_l2 < 0:
            raise ValueError("regularization coefficients must be >= 0")
        self.init_state = np.asarray(self.init_state, dtype=np.float64)
        if self.init_state.shape != (self.n_targets + self.n_latent,):
            raise ValueError(f"init_state must have length "
                             f"{self.n_targets + self.n_latent}")

    @property
    def dim(self) -> int:
        return self.n_features + self.n_targets + self.n_latent

    @property
    def order(self) -> int:
        return self.map.order

    @property
    def basis(self) -> MonomialBasis:
        return self.map.basis

    @classmethod
    def create(cls, n_features: int, n_targets: int, *, n_latent: int = 0,
               order: int = 3, steps: int = 5, init: str = "identity",
               seed: int = 0, init_trainable: bool = False,
               reg_l1: float = 0.0, reg_l2: float = 0.0,
               standardize: bool = True) -> "TmpnnModel":
        """Build a fresh model.

        init is "identity" (the map starts as the identity) or "perturbed"
        (identity plus N(0, 1e-4)-variance noise on every coefficient).
        """
        dim = n_features + n_targets + n_latent
        weights = identity_weights(dim, order)
        if init == "perturbed":
            rng = np.random.default_rng(seed)
            weights.delta += rng.normal(0.0, 0.01, size=weights.delta.shape)
        elif init != "identity":
            raise ValueError(f"init must be 'identity' or 'perturbed', got {init!r}")
        return cls(n_features=n_features, n_targets=n_targets, n_latent=n_latent,
                   steps=steps, map=weights,
                   init_state=np.zeros(n_targets + n_latent),
                   init_trainable=init_trainable,
                   reg_l1=reg_l1, reg_l2=reg_l2, standardize=standardize)

    def initial_state(self, X: np.ndarray) -> np.ndarray:
        """Extended start states: scaled features then init_state slots.

        A wrong width or a non-finite feature (named by row and column) is
        a ValueError here, before any map application.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, "
                             f"got {X.shape[1]}")
        if not np.isfinite(X).all():
            row, col = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"feature value {X[row, col]} at row {row}, "
                             f"column {col} is not finite")
        if self.scaler is not None:
            X = self.scaler.transform(X)
        z0 = np.empty((X.shape[0], self.dim))
        z0[:, :self.n_features] = X
        z0[:, self.n_features:] = self.init_state
        return z0


@dataclass
class TrainConfig:
    """Knobs for fit(), which minimizes MSE with AdamaxState's moment
    constants.  batch_size may be the string "full".  early_stop, when
    set, is a (patience, min_delta) pair: an int >= 1 and a finite
    number >= 0."""

    epochs: int = 1000
    batch_size: int | str = 256
    learning_rate: float = 0.002
    shuffle_seed: int = 0
    early_stop: tuple[int, float] | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if isinstance(self.batch_size, str):
            if self.batch_size != "full":
                raise ValueError("batch_size must be a positive int or 'full'")
        elif self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.early_stop is not None:
            try:
                patience, min_delta = self.early_stop
            except (TypeError, ValueError):
                raise ValueError(f"early_stop must be a (patience, min_delta) "
                                 f"pair, got {self.early_stop!r}") from None
            if (not isinstance(patience, numbers.Integral)
                    or isinstance(patience, bool) or patience < 1):
                raise ValueError(f"early_stop patience must be an int >= 1, "
                                 f"got {patience!r}")
            if (not isinstance(min_delta, numbers.Real)
                    or not math.isfinite(min_delta) or min_delta < 0):
                raise ValueError(f"early_stop min_delta must be finite and "
                                 f">= 0, got {min_delta!r}")


@dataclass
class TrainReport:
    """Per-epoch losses and final full-pass metrics from one fit() call.

    train_losses hold the epoch-mean training objective (data MSE plus any
    regularization penalty); valid_losses hold plain validation MSE.
    """

    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] | None = None
    best_epoch: int = 0
    epochs_run: int = 0
    diverged_steps: int = 0
    final_train_mse: float = float("nan")
    final_valid_mse: float | None = None


# Bytes of monomial matrix one predict block may hold: small enough that
# phi stays in cache across the p map applications of a block.
_PHI_BLOCK_BYTES = 512 * 1024


def _block_rows(basis: MonomialBasis) -> int:
    """Largest number of rows predict evaluates in one block; at least
    16, so an even split never leaves a block of fewer than 8 rows."""
    return max(16, _PHI_BLOCK_BYTES // (8 * basis.size))


def _leading(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous view of a flat buffer's first prod(shape) entries:
    laid out as a fresh array of that shape, so products over it round as
    they would over a fresh one."""
    return buf[:math.prod(shape)].reshape(shape)


def _forward_states(model: TmpnnModel, Z0: np.ndarray,
                    out: np.ndarray | None = None, phis=None,
                    first_row: int = 0) -> list[np.ndarray]:
    """Run the p map applications on a batch of start states.

    Returns the list of p+1 (N, dim) states, Z0 first; the other p are
    views of out, a (p, N, dim) buffer, when given.  phis[t] is the
    (size, N) buffer that receives the monomial matrix of states[t]; when
    phis is omitted, one fresh buffer serves every step.  Callers run
    this in an errstate scope that ignores overflow and invalid values.

    Only the final state is checked: a non-finite entry stays non-finite
    under Z + phi @ delta, so that one test finds every pass that
    diverges.  Only a diverged pass scans its states, for the first map
    application that made an entry non-finite, and raises DivergenceError
    with that step, the first row non-finite after it (plus first_row,
    for a batch that is a block of a larger input) and a copy of that
    row's input state.
    """
    delta = model.map.delta
    basis = model.basis
    if out is None:
        out = np.empty((model.steps,) + Z0.shape)
    if phis is None:
        phis = [np.empty((basis.size, Z0.shape[0]))] * model.steps
    states = [Z0]
    for t in range(model.steps):
        phi = eval_monomials_batch(basis, states[t], phis[t])
        Z = np.matmul(phi, delta, out=out[t])
        Z += states[t]
        states.append(Z)
    if np.isfinite(states[-1]).all():
        return states
    step = next(t for t in range(1, len(states))
                if not np.isfinite(states[t]).all())
    row = int(np.flatnonzero(~np.isfinite(states[step]).all(axis=1))[0])
    raise DivergenceError(
        f"state became non-finite at map application {step} "
        f"(batch row {first_row + row})", step=step,
        row=first_row + row, state=states[step - 1][row].copy())


def forward(model: TmpnnModel, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Predict one sample and return the full state trajectory.

    Args:
        model: the regressor.
        x: feature vector of length n_features.

    Returns:
        (prediction, trajectory): prediction has length n_targets;
        trajectory is the list of p+1 extended states, starting from the
        (scaled) input state.

    Raises:
        ValueError: on a wrong length or a non-finite feature.
        DivergenceError: if the trajectory overflows; carries the step.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("forward takes a single feature vector")
    with np.errstate(over="ignore", invalid="ignore"):
        states = _forward_states(model, model.initial_state(x[None, :]))
    n, m = model.n_features, model.n_targets
    prediction = states[-1][0, n:n + m].copy()
    return prediction, [s[0] for s in states]


def predict(model: TmpnnModel, X) -> np.ndarray:
    """Predict an (N, n_targets) matrix for an (N, n_features) input.

    The rows run through the p map applications in consecutive, evenly
    split blocks whose monomial matrix fits a fixed budget of about 512
    KiB, so memory beyond X and the result is bounded whatever N is.  No
    block is a single row unless N == 1, so each row's prediction is the
    one a single pass over all rows gives, to the last bit for bases
    within one BLAS block of the phi @ delta sum (a few hundred
    monomials; wider ones may round the last bits by row count, in one
    pass as in blocks).

    Raises ValueError on bad input (see TmpnnModel.initial_state), and
    DivergenceError, carrying step, row and state, when a row overflows.
    When rows in several blocks overflow, the error is the first block's
    (in row order): its earliest overflowing step, and the first row of
    that block to overflow there; row is the index into X.  A block is
    checked once, after its last map application (see _forward_states),
    which reports the same error as a check after every application.
    """
    Z0 = model.initial_state(X)
    n, m = model.n_features, model.n_targets
    size = model.basis.size
    N = Z0.shape[0]
    out = np.empty((N, m))
    # even blocks: no block has a single row unless N == 1
    n_blocks = max(1, -(-N // _block_rows(model.basis)))
    bounds = [N * i // n_blocks for i in range(n_blocks + 1)]
    longest = -(-N // n_blocks)
    after = np.empty((model.steps, longest, model.dim))
    phi = np.empty(size * longest)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(bounds, bounds[1:]):
            # predict keeps no monomial matrix: one buffer serves every step
            phis = [_leading(phi, size, stop - start)] * model.steps
            states = _forward_states(model, Z0[start:stop],
                                     after[:, :stop - start], phis,
                                     first_row=start)
            out[start:stop] = states[-1][:, n:n + m]
    return out


class _Workspace:
    """The arrays of a training step on up to rows rows.

    fit() allocates one per call, so its steps fault no fresh pages in;
    a shorter batch uses leading views.  It holds the start states and
    the p after them, the p monomial matrices the backward pass reads,
    the layer Jacobians, the targets, and the Jacobian coefficient
    table C.
    """

    def __init__(self, model: TmpnnModel, rows: int):
        basis, dim = model.basis, model.dim
        self.z0 = np.empty((rows, dim))
        self.states = np.empty((model.steps, rows, dim))
        self.phis = np.empty(model.steps * basis.size * rows)
        self.jac = np.empty(rows * dim * dim)
        self.Y = np.empty((rows, model.n_targets))
        # the scatter in _step writes the same positions every time, and
        # dividing by z_j is injective, so no (row, j) of C is written twice
        low = basis.degree_slice(basis.order).start
        self.C = np.zeros((low, dim, dim))


def _step(model: TmpnnModel, ws: _Workspace, rows: int):
    """loss_and_gradient of the batch whose start states and targets are
    the first rows of ws.z0 and ws.Y."""
    n, m, dim = model.n_features, model.n_targets, model.dim
    basis = model.basis
    delta = model.map.delta
    phis = _leading(ws.phis, model.steps, basis.size, rows)
    low = ws.C.shape[0]
    terms, var, lowered, exps = basis.deriv_terms
    # overflow surfaces as a DivergenceError from the forward pass, or as
    # a non-finite loss or gradient that fit() skips as the same event
    with np.errstate(over="ignore", invalid="ignore"):
        states = _forward_states(model, ws.z0[:rows], ws.states[:, :rows],
                                 phis)

        resid = states[-1][:, n:n + m] - ws.Y[:rows]
        loss = float(np.mean(resid ** 2))

        G = np.zeros((rows, dim))
        G[:, n:n + m] = (2.0 / resid.size) * resid

        # the layer Jacobian I + (dphi/dZ)^T delta is a polynomial in the
        # monomials of degree below k, since d(phi_i)/dz_j = exponents[i, j]
        # * phi[lowered[i, j]]
        ws.C[lowered, var] = exps[:, None] * delta[terms]
        C = ws.C.reshape(low, dim * dim)
        J = _leading(ws.jac, rows, dim * dim)

        d_delta = np.zeros_like(delta)
        for t in range(model.steps - 1, -1, -1):
            phi = phis[t]
            d_delta += phi @ G
            # G_0 is read only as the init_state gradient
            if t > 0 or model.init_trainable:
                np.matmul(phi.T[:, :low], C, out=J)
                G = G + np.einsum("njo,no->nj", J.reshape(-1, dim, dim), G)

        if model.reg_l1 > 0 or model.reg_l2 > 0:
            W = model.map.W
            if model.reg_l1 > 0:
                loss += model.reg_l1 * float(np.sum(np.abs(W)))
                d_delta += model.reg_l1 * np.sign(W)
            if model.reg_l2 > 0:
                loss += model.reg_l2 * float(np.sum(W ** 2))
                d_delta += 2.0 * model.reg_l2 * W

    grads = {"delta": d_delta}
    if model.init_trainable:
        grads["init_state"] = G[:, n:].sum(axis=0)
    return loss, grads


def loss_and_gradient(model: TmpnnModel, batch: Dataset):
    """Training objective and its gradient on one batch.

    The data term is the mean squared error over every target entry; L1/L2
    penalties apply to the literal coefficient matrix, identity diagonal
    included.  This is the step fit() takes, on a workspace of its own.

    Returns:
        (loss, gradients) where gradients is a dict with key "delta"
        (shaped like the stored weight matrix) and, when init_state is
        trainable, key "init_state".

    Raises:
        DivergenceError: when the forward pass overflows.
    """
    if batch.n_features != model.n_features or batch.n_targets != model.n_targets:
        raise ValueError("batch width does not match the model")
    ws = _Workspace(model, batch.n_samples)
    ws.z0[:] = model.initial_state(batch.X)
    ws.Y[:] = batch.Y
    return _step(model, ws, batch.n_samples)


def _metric_mse_or_inf(model: TmpnnModel, data: Dataset) -> float:
    """Full-pass MSE; inf when some row's forward pass diverges.

    Training survives divergent batches, so the bookkeeping passes must
    not be the thing that crashes a run.
    """
    try:
        return metric_mse(data.Y, predict(model, data.X))
    except DivergenceError:
        return float("inf")


def fit(model: TmpnnModel, train: Dataset, valid: Dataset | None = None,
        config: TrainConfig | None = None) -> TrainReport:
    """Train the model in place with Adamax; returns a TrainReport.

    Features are standardized when model.standardize is set: the scaler
    is fitted on the training split of the first fit() and kept by later
    ones, so a warm start trains in the coordinates the map was learned
    in.  A diverging batch is skipped and the learning rate halved for
    the remainder of that epoch; if every batch of an epoch diverges,
    TrainingDivergedError is raised.  A validation or final metric pass
    that diverges records inf instead of failing the run.  With early_stop
    configured, which needs a validation set (ValueError otherwise),
    training stops after patience epochs without a validation loss below
    the best minus min_delta, and the weights from the best validation
    epoch are restored at the end.

    The training features are checked and scaled once per call, and the
    arrays of a step (see _Workspace) are allocated once per call for
    the largest batch; each step gathers its rows into them.  The
    result is the one a loop of loss_and_gradient and adamax_step over
    the same batches gives, to the bit.
    """
    if config is None:
        config = TrainConfig()
    if train.n_features != model.n_features or train.n_targets != model.n_targets:
        raise ValueError("training data width does not match the model")
    if valid is not None and (valid.n_features != model.n_features
                              or valid.n_targets != model.n_targets):
        raise ValueError("validation data width does not match the model")
    if config.early_stop is not None and valid is None:
        raise ValueError("early_stop needs a validation set (valid)")

    if model.standardize and model.scaler is None:
        model.scaler = Scaler.fit(train.X)
    # checked and scaled once; the init_state slots are rewritten per step
    Z0 = model.initial_state(train.X)

    n_rows = train.n_samples
    batch = n_rows if config.batch_size == "full" else min(int(config.batch_size), n_rows)
    ws = _Workspace(model, batch)
    rng = np.random.default_rng(config.shuffle_seed)
    opt = AdamaxState.init(
        [model.map.delta] + ([model.init_state] if model.init_trainable else []),
        alpha=config.learning_rate)

    report = TrainReport(valid_losses=[] if valid is not None else None)
    best_valid = np.inf
    best_snapshot = None
    since_improve = 0

    for epoch in range(config.epochs):
        lr = config.learning_rate
        perm = rng.permutation(n_rows)
        losses = []
        for start in range(0, n_rows, batch):
            idx = perm[start:start + batch]
            z0 = ws.z0[:len(idx)]
            np.take(Z0, idx, axis=0, out=z0)
            # init_trainable moves the start slots between steps
            z0[:, model.n_features:] = model.init_state
            np.take(train.Y, idx, axis=0, out=ws.Y[:len(idx)])
            try:
                loss, grads = _step(model, ws, len(idx))
            except DivergenceError:
                report.diverged_steps += 1
                lr *= 0.5
                continue
            # an overflowing backward pass is the same exploding-step event
            if not (np.isfinite(loss)
                    and all(np.isfinite(g).all() for g in grads.values())):
                report.diverged_steps += 1
                lr *= 0.5
                continue
            params = [model.map.delta]
            if model.init_trainable:
                params.append(model.init_state)
            params = adamax_step(opt, params, list(grads.values()), lr=lr)
            model.map.delta = params[0]
            if model.init_trainable:
                model.init_state = params[1]
            losses.append(loss)

        if not losses:
            raise TrainingDivergedError(
                f"every batch diverged in epoch {epoch}; standardize the "
                f"features or lower the learning rate")
        report.train_losses.append(float(np.mean(losses)))
        report.epochs_run = epoch + 1

        if valid is not None:
            v = _metric_mse_or_inf(model, valid)
            report.valid_losses.append(v)
            if v < best_valid - (config.early_stop[1] if config.early_stop else 0.0):
                best_valid = v
                report.best_epoch = epoch
                since_improve = 0
                if config.early_stop is not None:
                    best_snapshot = (model.map.delta.copy(),
                                     model.init_state.copy())
            else:
                since_improve += 1
            if config.early_stop is not None and since_improve >= config.early_stop[0]:
                break
        else:
            if report.train_losses[-1] < best_valid:
                best_valid = report.train_losses[-1]
                report.best_epoch = epoch

    if best_snapshot is not None:
        model.map.delta, model.init_state = best_snapshot

    report.final_train_mse = _metric_mse_or_inf(model, train)
    if valid is not None:
        report.final_valid_mse = _metric_mse_or_inf(model, valid)
    return report
