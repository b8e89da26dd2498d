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
Jacobian is one product with the lower-degree monomials.  The chain runs
in the forward pass's feature-major layout, so every product and the
sum over state slots run along rows, in buffers a step reuses: beyond
its residual and the residual's square, a step allocates nothing whose
size grows with the batch.  The optimizer
is Adamax (see optim); a step whose forward pass overflows, or whose
loss or gradient is non-finite, is an exploding step, which is skipped
with the learning rate halved for the rest of the epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import MonomialBasis, eval_monomials_batch
from .data import Dataset, metric_mse
from .errors import (DivergenceError, TrainingDivergedError, _check_finite,
                     _check_int, _check_real)
from .optim import ALPHA, AdamaxState, adamax_step
from .taylor_map import TaylorMapWeights, identity_weights


@dataclass
class Scaler:
    """Per-feature affine standardization: x -> (x - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.mean = _check_finite("mean", self.mean, (None,))
        self.scale = _check_finite("scale", self.scale, self.mean.shape)
        if not (self.scale > 0).all():
            raise ValueError("scale must hold positive numbers")

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        """Mean/std scaler from data; zero-variance columns get scale 1.

        A column whose mean or standard deviation is not finite is a
        ValueError naming it: for finite values, their spread overflows
        float64.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            scale = X.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(scale))
        if bad.any():
            col = int(np.flatnonzero(bad)[0])
            cause = ("its spread overflows float64"
                     if np.isfinite(X[:, col]).all()
                     else "it holds non-finite values")
            raise ValueError(f"feature column {col} has a non-finite mean or "
                             f"standard deviation: {cause}")
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """(X - mean) / scale, written into out when given (and returned)."""
        out = np.subtract(X, self.mean, out=out)
        return np.divide(out, self.scale, out=out)


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
        _check_sizes(self.n_features, self.n_targets, self.n_latent, self.steps)
        if self.map.dim != self.dim:
            raise ValueError(f"map dimension {self.map.dim} does not equal "
                             f"n_features + n_targets + n_latent = {self.dim}")
        _check_real("reg_l1", self.reg_l1, 0)
        _check_real("reg_l2", self.reg_l2, 0)
        self.init_state = _check_finite("init_state", self.init_state,
                                        (self.n_targets + self.n_latent,))
        if self.scaler is not None and self.scaler.mean.shape != (self.n_features,):
            raise ValueError(f"scaler must have one entry per feature, got "
                             f"{self.scaler.mean.size} for {self.n_features}")

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
        _check_sizes(n_features, n_targets, n_latent, steps)
        _check_int("seed", seed, 0)
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

        A 1-D X is one row.  A wrong width or rank, or a non-finite
        feature (named by row and column), is a ValueError here, before
        any map application.  Beyond the (N, dim) result it holds only a
        boolean finiteness mask of X.
        """
        X = self._checked_features(X)
        z0 = np.empty((X.shape[0], self.dim))
        self._fill_states(X, z0)
        return z0

    def _checked_features(self, X) -> np.ndarray:
        """X as a float64 (N, n_features) array, a view of X when it is
        one; a ValueError on a wrong width or rank or a non-finite value."""
        X = np.asarray(X)  # _check_finite converts, and names a huge int
        if X.ndim > 2:
            raise ValueError(f"expected one row or a 2-D table of rows, "
                             f"got an array of shape {X.shape}")
        if X.ndim < 2:  # a method, not np.atleast_2d's Python wrapper
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, "
                             f"got {X.shape[1]}")
        return _check_finite("X", X)

    def _fill_states(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write the start states of the checked rows X into out, a
        (len(X), dim) buffer; scaling is elementwise, so the values are
        those of a full-array transform to the bit."""
        features = out[:, :self.n_features]
        if self.scaler is None:
            features[...] = X
        else:
            self.scaler.transform(X, out=features)
        out[:, self.n_features:] = self.init_state


def _check_sizes(n_features, n_targets, n_latent, steps) -> None:
    """A ValueError naming the first size that is not a count (see errors)."""
    for name, value, least in (("n_features", n_features, 1),
                               ("n_targets", n_targets, 1),
                               ("n_latent", n_latent, 0), ("steps", steps, 1)):
        _check_int(name, value, least)


@dataclass
class TrainConfig:
    """Knobs for fit(), which minimizes MSE with Adamax at learning_rate
    (optim's published ALPHA by default): epochs >= 1, batch_size >= 1 or
    "full", learning_rate > 0, shuffle_seed >= 0, early_stop None or
    (patience >= 1, min_delta >= 0).
    A field that breaks this is a ValueError naming it (see errors)."""

    epochs: int = 1000
    batch_size: int | str = 256
    learning_rate: float = ALPHA
    shuffle_seed: int = 0
    early_stop: tuple[int, float] | None = None

    def __post_init__(self):
        _check_int("epochs", self.epochs, 1)
        if self.batch_size != "full":
            _check_int("batch_size", self.batch_size, 1)
        _check_real("learning_rate", self.learning_rate, 0, strict=True)
        _check_int("shuffle_seed", self.shuffle_seed, 0)
        if self.early_stop is not None:
            try:
                patience, min_delta = self.early_stop
            except (TypeError, ValueError):
                raise ValueError(f"early_stop must be a (patience, min_delta) "
                                 f"pair, got {self.early_stop!r}") from None
            _check_int("early_stop patience", patience, 1)
            _check_real("early_stop min_delta", min_delta, 0)


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
# phi stays in cache across the p map applications of a block.  Unless
# the basis has 60 runs or more (dim * (order - 1)), blocks this tall
# reach basis.run_rows and take eval_monomials_batch's in-place kernel,
# which keeps no copy of parent rows beside phi, so phi alone is the
# block's working set.
_PHI_BLOCK_BYTES = 1024 * 1024


def _block_rows(basis: MonomialBasis) -> int:
    """Largest number of rows predict evaluates in one block; at least
    16, so an even split never leaves a block of fewer than 8 rows."""
    return max(16, _PHI_BLOCK_BYTES // (8 * basis.size))


def _leading(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous view of a flat buffer's first prod(shape) entries:
    laid out as a fresh array of that shape, so products over it round as
    they would over a fresh one."""
    return buf[:math.prod(shape)].reshape(shape)


def _feature_major(buf: np.ndarray, *shape: int) -> np.ndarray:
    """States as every batched pass keeps them, feature-major: a flat
    buffer's leading (..., dim, rows) block as a (..., rows, dim) view, so
    the gather, the phi @ delta product and the scaling run along rows."""
    *lead, rows, dim = shape
    return _leading(buf, *lead, dim, rows).swapaxes(-1, -2)


def _forward_states(model: TmpnnModel, Z0: np.ndarray, out=None, phis=None,
                    first_row: int = 0) -> list[np.ndarray]:
    """Run the p map applications on a batch of (N, dim) start states.

    State t+1 goes into out[t % len(out)], two or more feature-major
    (N, dim) buffers (see _feature_major), and the monomial matrix of
    state t into phis[t % len(phis)], (size, N) buffers.  By default out
    holds all p states and one fresh buffer serves every step's phis.
    Returns [Z0, *out], the trajectory, when out holds all p states, and
    [Z0, final state] otherwise.

    This is the one forward loop: predict runs it on each block, forward
    with the default out, and a training step in its workspace.  The
    buffers each application reads and writes are bound once per call,
    so the loop builds no view, and the map product is
    delta.T.dot(phi.T, out=after.T): numpy's dot, which costs less per
    call than the matmul ufunc and gave its bits on every shape tried.

    The caller holds the np.errstate scope that keeps an overflow from
    warning, one per call around its scaling and this loop: predict,
    forward and the training step each open it once.  Only the final
    state is checked: a non-finite entry stays non-finite under
    Z + phi @ delta, so that one test finds every pass that diverges,
    a start state that is not finite included.  A diverged pass runs
    again into the same buffers, its start states checked first and each
    state after its application, and raises DivergenceError with the
    first step to make an entry non-finite (0 for a start state: a
    standardized feature that overflows float64), its first non-finite
    row (plus first_row, when the batch is a block of a larger input)
    and a copy of that row's input state.
    """
    basis, p = model.basis, model.steps
    if out is None:
        out = _feature_major(np.empty(p * Z0.size), p, *Z0.shape)
    if phis is None:
        phis = [np.empty((basis.size, Z0.shape[0]))]
    # bound once: application t indexes these lists and builds no view;
    # each state is written by the product as its (dim, N) transpose
    out, phis = list(out), list(phis)
    out_T = [after.T for after in out]
    k, j = len(out), len(phis)
    weights = model.map.delta.T
    for check in (False, True):
        Z = Z0
        if check and (row := _non_finite_row(Z0)) >= 0:
            raise DivergenceError(
                f"a standardized feature overflows float64 in the start "
                f"state (batch row {first_row + row})", step=0,
                row=first_row + row, state=Z0[row].copy())
        for t in range(p):
            phi, after = phis[t % j], out[t % k]
            eval_monomials_batch(basis, Z, phi)
            weights.dot(phi, out=out_T[t % k])
            after += Z
            if check and (row := _non_finite_row(after)) >= 0:
                raise DivergenceError(
                    f"state became non-finite at map application {t + 1} "
                    f"(batch row {first_row + row})", step=t + 1,
                    row=first_row + row, state=Z[row].copy())
            Z = after
        if check or np.logical_and.reduce(np.isfinite(Z), None):
            return [Z0, *out] if len(out) == p else [Z0, Z]


def _non_finite_row(Z: np.ndarray) -> int:
    """Index of the first row of Z holding a non-finite entry, or -1."""
    finite = np.logical_and.reduce(np.isfinite(Z), 1)
    return -1 if np.logical_and.reduce(finite, None) else int(finite.argmin())


def forward(model: TmpnnModel, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Predict one sample and return its trajectory: the one forward
    pass that keeps all p states.

    Args:
        model: the regressor.
        x: feature vector of length n_features.

    Returns:
        (prediction, trajectory): prediction has length n_targets;
        trajectory is the list of p+1 extended states, starting from the
        (scaled) input state.

    Raises:
        ValueError: on a wrong length or a non-finite feature.
        DivergenceError: if the trajectory overflows; carries the step,
            0 when a standardized feature overflows float64.
    """
    if np.asarray(x).ndim != 1:  # initial_state converts, and names a huge int
        raise ValueError("forward takes a single feature vector")
    # one scope: an overflow in the scaling or the map is a DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        states = _forward_states(model, model.initial_state(x))
    n, m = model.n_features, model.n_targets
    prediction = states[-1][0, n:n + m].copy()
    return prediction, [s[0] for s in states]


def predict(model: TmpnnModel, X) -> np.ndarray:
    """Predict an (N, n_targets) matrix for an (N, n_features) input.

    X is checked whole first (see TmpnnModel.initial_state), so bad input
    fails before any map application.  The rows then run through the p
    map applications in consecutive, evenly split blocks whose monomial
    matrix fits a fixed budget of about 1 MiB; blocks that tall build
    their monomials in place, with no copy of parent rows beside the
    matrix (see eval_monomials_batch).  Besides a float64 view
    of X (a copy only when X is not one already) and the result, predict
    holds a boolean finiteness mask of X, during the check, and, whatever
    N and p are, a block's start states, the pair its p states alternate
    in, and one monomial matrix that serves every step.  The blocks are
    planned once per call: a call of one block (N up to _block_rows, so
    every 1-row and 256-row request) allocates these at its exact height
    and returns a copy of the target slots of its final state, and a
    longer call views them once per block height (an even split has at
    most two).  Each map application's product is one ndarray.dot (see
    _forward_states), so a one-row call runs numpy's C entry points
    only, inside one np.errstate.  No block is a
    single row unless N == 1, so each row's prediction is the one a single
    pass over all rows gives, to the last bit for bases within one BLAS
    block of the phi @ delta sum (a few hundred monomials; wider ones may
    round the last bits by row count, in one pass as in blocks) at the
    default BLAS thread count.  With one BLAS thread OpenBLAS may sum the
    last (rows mod 8) rows of a product in another order, so for some
    narrower bases too (120 monomials at n=10, m=2, l=2, k=2; not 84 at
    n=5, m=1, k=3) a block's last rows may round by its height.

    Raises ValueError on bad input (see TmpnnModel.initial_state), and
    DivergenceError, carrying step, row and state, when a row overflows:
    at step 0 when a standardized feature of it overflows float64.
    When rows in several blocks overflow, the error is the first block's
    (in row order): its earliest overflowing step, and the first row of
    that block to overflow there; row is the index into X.  A diverged
    block runs once more, checked after each map application (see
    _forward_states).
    """
    X = model._checked_features(X)
    n, m, dim = model.n_features, model.n_targets, model.dim
    size = model.basis.size
    N = X.shape[0]
    most = _block_rows(model.basis)
    # one scope for the call: an overflow in the scaling or the map is a
    # DivergenceError (see _forward_states), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if N <= most:
            # one block, its buffers at its exact height: the start states,
            # the pair the p states alternate in, and the monomial matrix
            z0, *states = np.empty((3, dim, N)).swapaxes(1, 2)
            model._fill_states(X, z0)
            final = _forward_states(model, z0, states,
                                    [np.empty((size, N))])[-1]
            return final[:, n:n + m].copy()
        # even blocks: no block has a single row; they have at most two
        # heights, and each height's views are built once
        n_blocks = -(-N // most)
        longest = -(-N // n_blocks)
        bounds = [N * i // n_blocks for i in range(n_blocks + 1)]
        buf = np.empty(3 * dim * longest)
        phi = np.empty(size * longest)
        views = {}
        for rows in {b - a for a, b in zip(bounds, bounds[1:])}:
            z0, *states = _feature_major(buf, 3, rows, dim)
            views[rows] = z0, states, [_leading(phi, size, rows)]
        out = np.empty((N, m))
        for start, stop in zip(bounds, bounds[1:]):
            z0, states, phis = views[stop - start]
            model._fill_states(X[start:stop], z0)
            final = _forward_states(model, z0, states, phis,
                                    first_row=start)[-1]
            out[start:stop] = final[:, n:n + m]
        return out


class _Workspace:
    """The arrays of a training step on up to rows rows.

    fit() allocates one per call, so its steps fault no fresh pages in;
    a shorter batch uses leading views, laid out as fresh arrays of its
    height (see _leading).  It holds the start states, then the pair the
    p states alternate in (see _feature_major), the p monomial matrices
    the backward pass reads, the targets, and the Jacobian coefficient
    table C with the column of factors its gathered rows are scaled by.
    The backward chain is feature-major too: G, the state gradient, and
    E, the slot sum added to it, are (dim, rows), each layer Jacobian
    jac is (dim * dim, rows), and prod takes each layer's (size, dim)
    term of the weight gradient.  Besides the residual and its square, a
    step allocates nothing whose size grows with the batch.
    """

    def __init__(self, model: TmpnnModel, rows: int):
        basis, dim = model.basis, model.dim
        self.states = np.empty(3 * dim * rows)
        self.phis = np.empty(model.steps * basis.size * rows)
        self.G = np.empty(dim * rows)
        self.E = np.empty(dim * rows)
        self.jac = np.empty(dim * dim * rows)
        self.prod = np.empty((basis.size, dim))
        self.Y = np.empty((rows, model.n_targets))
        # _step overwrites every row of C, so it starts empty
        low = basis.degree_slice(basis.order).start
        self.C = np.empty((low * dim, dim))
        self.mult = basis.exponents[:low].reshape(-1, 1) + 1.0


def _step(model: TmpnnModel, ws: _Workspace, rows: int):
    """loss_and_gradient of the batch whose start states lead ws.states
    and whose targets lead ws.Y."""
    n, m, dim = model.n_features, model.n_targets, model.dim
    basis = model.basis
    delta = model.map.delta
    phis = _leading(ws.phis, model.steps, basis.size, rows)
    states = _feature_major(ws.states, 3, rows, dim)
    # one scope for the step: an overflowing forward pass raises there,
    # and an overflowing loss or gradient fails the check at the end
    with np.errstate(over="ignore", invalid="ignore"):
        final = _forward_states(model, states[0], states[1:], phis)[-1]
        resid = final[:, n:n + m] - ws.Y[:rows]
        # ufunc reduces, not ndarray methods: mean, sum and all enter
        # numpy's Python wrappers; this is the sum and count mean divides
        sq = resid ** 2
        loss = float(np.add.reduce(sq, None) / sq.size)

        # G[j] is the loss gradient along slot j of the current state
        G = _leading(ws.G, dim, rows)
        G.fill(0.0)
        np.multiply(resid.T, 2.0 / resid.size, out=G[n:n + m])

        # the layer Jacobian I + (dphi/dZ)^T delta is a polynomial in the
        # monomials of degree below k: the coefficient row (l, j) of
        # monomial l is (exponents[l, j] + 1) * delta[raised[l * dim + j]].
        # raised is valid by construction; "clip" skips numpy's buffering
        delta.take(basis.raised, 0, ws.C, "clip")
        ws.C *= ws.mult
        C = ws.C.reshape(-1, dim * dim)
        low = C.shape[0]
        # J[j, o] is d(phi @ delta)[o] / dZ[j] at every row
        J = _leading(ws.jac, dim * dim, rows)
        E = _leading(ws.E, dim, rows)

        d_delta = np.zeros(delta.shape)
        for t in range(model.steps - 1, -1, -1):
            phi = phis[t]
            d_delta += phi.dot(G.T, out=ws.prod)
            # G_0 is read only as the init_state gradient
            if t > 0 or model.init_trainable:
                C.T.dot(phi[:low], out=J)
                np.einsum("jon,on->jn", J.reshape(dim, dim, rows), G, out=E)
                G += E

        if model.reg_l1 > 0 or model.reg_l2 > 0:
            W = model.map.W
            if model.reg_l1 > 0:
                loss += model.reg_l1 * float(np.add.reduce(np.abs(W), None))
                d_delta += model.reg_l1 * np.sign(W)
            if model.reg_l2 > 0:
                loss += model.reg_l2 * float(np.add.reduce(W ** 2, None))
                d_delta += 2.0 * model.reg_l2 * W

    grads = {"delta": d_delta}
    if model.init_trainable:
        grads["init_state"] = np.add.reduce(G[n:], 1)
    if not (math.isfinite(loss) and all(
            np.logical_and.reduce(np.isfinite(g), None)
            for g in grads.values())):
        raise DivergenceError("the loss or a gradient became non-finite")
    return loss, grads


def _check_width(model: TmpnnModel, data: Dataset, what: str) -> None:
    if data.n_features != model.n_features or data.n_targets != model.n_targets:
        raise ValueError(f"{what} width does not match the model")


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
        DivergenceError: when the forward pass overflows, or the loss or
            a gradient is non-finite.
    """
    _check_width(model, batch, "batch")
    ws = _Workspace(model, batch.n_samples)
    model._fill_states(model._checked_features(batch.X),
                       _feature_major(ws.states, batch.n_samples, model.dim))
    ws.Y[:] = batch.Y
    return _step(model, ws, batch.n_samples)


def _guarded_predict(model: TmpnnModel, X) -> tuple[np.ndarray, bool]:
    """(predict(model, X), False), or (inf in every entry, True) when some
    row diverges, which scores MSE inf and R^2 -inf: the passes that score
    a fit, fit's own and `tmpnn train`'s, must not be what crashes it."""
    try:
        return predict(model, X), False
    except DivergenceError:
        return np.full((len(X), model.n_targets), np.inf), True


def _metric_mse_or_inf(model: TmpnnModel, data: Dataset) -> float:
    """Full-pass MSE; inf when some row diverges or the MSE overflows."""
    return metric_mse(data.Y, _guarded_predict(model, data.X)[0])


def fit(model: TmpnnModel, train: Dataset, valid: Dataset | None = None,
        config: TrainConfig | None = None) -> TrainReport:
    """Train the model in place with Adamax; returns a TrainReport.

    Features are standardized when model.standardize is set: the scaler
    is fitted on the training split of the first fit() and kept by later
    ones, so a warm start trains in the coordinates the map was learned
    in.  A diverging batch (see loss_and_gradient) is skipped and the
    learning rate halved for the remainder of that epoch; if every batch
    of an epoch diverges, TrainingDivergedError is raised.  A validation
    or final metric pass that diverges, and an epoch mean loss that
    overflows, record inf instead of failing the run.  An epoch improves
    when its score, the validation loss (training loss without a
    validation set), is below the best so far minus min_delta (0
    without early_stop); the last such epoch is best_epoch.
    With early_stop, which needs a validation set (ValueError otherwise),
    training stops after patience epochs without an improvement, and the
    weights from the best epoch are restored at the end.

    The training features are checked and scaled once per call, and the
    arrays of a step (see _Workspace) are allocated once per call for
    the largest batch; each step gathers its rows into them.  The
    result is the one a loop of loss_and_gradient and adamax_step (at
    lr=config.learning_rate) over the same batches gives, to the bit.
    """
    if config is None:
        config = TrainConfig()
    _check_width(model, train, "training data")
    if valid is not None:
        _check_width(model, valid, "validation data")
    if config.early_stop is not None and valid is None:
        raise ValueError("early_stop needs a validation set (valid)")
    patience, min_delta = config.early_stop or (None, 0.0)

    if model.standardize and model.scaler is None:
        model.scaler = Scaler.fit(train.X)
    # checked and scaled once, feature-major; init slots are set per step
    Z0 = np.empty((model.dim, train.n_samples))
    model._fill_states(model._checked_features(train.X), Z0.T)

    n_rows = train.n_samples
    batch = n_rows if config.batch_size == "full" else min(int(config.batch_size), n_rows)
    ws = _Workspace(model, batch)
    rng = np.random.default_rng(config.shuffle_seed)
    params = [model.map.delta] + ([model.init_state] if model.init_trainable else [])
    opt = AdamaxState.init(params)

    report = TrainReport(valid_losses=[] if valid is not None else None)
    best, best_snapshot, since_improve = np.inf, None, 0

    for epoch in range(config.epochs):
        lr = config.learning_rate
        perm = rng.permutation(n_rows)
        losses = []
        for start in range(0, n_rows, batch):
            idx = perm[start:start + batch]
            z0 = _feature_major(ws.states, len(idx), model.dim)
            # idx is a permutation slice; "clip" skips numpy's buffering
            Z0.take(idx, 1, z0.T, "clip")
            # init_trainable moves the start slots between steps
            z0[:, model.n_features:] = model.init_state
            train.Y.take(idx, 0, ws.Y[:len(idx)], "clip")
            try:
                loss, grads = _step(model, ws, len(idx))
            except DivergenceError:
                report.diverged_steps += 1
                lr *= 0.5
                continue
            params = adamax_step(opt, params, list(grads.values()), lr=lr)
            model.map.delta = params[0]
            if model.init_trainable:
                model.init_state = params[1]
            losses.append(loss)

        if not losses:
            raise TrainingDivergedError(
                f"every batch diverged in epoch {epoch}; standardize the "
                f"features or lower the learning rate")
        with np.errstate(over="ignore"):  # a mean that overflows is inf
            report.train_losses.append(float(np.mean(losses)))
        report.epochs_run = epoch + 1
        if valid is not None:
            report.valid_losses.append(_metric_mse_or_inf(model, valid))
        score = (report.valid_losses or report.train_losses)[-1]

        if score < best - min_delta:
            best, report.best_epoch, since_improve = score, epoch, 0
            if patience is not None:
                best_snapshot = (model.map.delta.copy(), model.init_state.copy())
        else:
            since_improve += 1
            if since_improve == patience:
                break

    if best_snapshot is not None:
        model.map.delta, model.init_state = best_snapshot

    report.final_train_mse = _metric_mse_or_inf(model, train)
    if valid is not None:
        report.final_valid_mse = _metric_mse_or_inf(model, valid)
    return report
