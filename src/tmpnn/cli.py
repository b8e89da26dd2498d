"""Command-line front end: train, predict, evaluate, inspect-ode,
raise-order, and gen-data."""

from __future__ import annotations

import os

# honor the thread-count variable before numpy binds its thread pools
_threads = os.environ.get("TMPNN_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import sys

import numpy as np

from . import data as datamod
from . import io as iomod
from . import model as modelmod
from . import odeview
from .errors import TmpnnError


def _parse_targets(spec: str):
    try:
        return int(spec)
    except ValueError:
        return [name.strip() for name in spec.split(",") if name.strip()]


def _parse_batch(spec: str):
    if spec == "full":
        return "full"
    return int(spec)


def _generate(generator: str, args) -> datamod.Dataset:
    if generator == "friedman1":
        return datamod.gen_friedman1(args.samples, n_unimportant=args.unimportant,
                                     noise_std=args.noise, seed=args.seed)
    return datamod.gen_noisy_linear(args.samples, x_range=tuple(args.range),
                                    seed=args.seed)


def _load_training_data(args) -> datamod.Dataset:
    if args.data is not None and args.gen is not None:
        raise ValueError("--data and --gen are mutually exclusive")
    if args.data is not None:
        if args.targets is None:
            raise ValueError("--targets is required with --data")
        return datamod.load_csv(args.data, _parse_targets(args.targets))
    if args.gen is not None:
        return _generate(args.gen, args)
    raise ValueError("one of --data or --gen is required")


def _split(args, dataset: datamod.Dataset):
    """(train, test) per --split-quantile or --test-fraction; test is None
    when neither is given."""
    if args.test_fraction is not None and args.split_quantile is not None:
        raise ValueError("--test-fraction and --split-quantile are mutually "
                         "exclusive")
    if args.split_quantile is not None:
        column, _, q = args.split_quantile.rpartition(":")
        if not column:
            raise ValueError(f"--split-quantile expects column:quantile, "
                             f"got {args.split_quantile!r}")
        return datamod.split_quantile(dataset, column, float(q))
    if args.test_fraction is not None:
        return datamod.split_random(dataset, args.test_fraction, args.seed)
    return dataset, None


def cmd_train(args) -> int:
    train, test = _split(args, _load_training_data(args))

    model = modelmod.TmpnnModel.create(
        train.n_features, train.n_targets, n_latent=args.latent,
        order=args.order, steps=args.steps, init=args.init, seed=args.seed,
        reg_l1=args.l1, reg_l2=args.l2,
        standardize=(args.standardize == "on"))
    config = modelmod.TrainConfig(epochs=args.epochs,
                                  batch_size=_parse_batch(args.batch),
                                  learning_rate=args.lr,
                                  shuffle_seed=args.seed)
    report = modelmod.fit(model, train, config=config)

    train_pred = modelmod.predict(model, train.X)
    metrics = {
        "train_mse": datamod.metric_mse(train.Y, train_pred),
        "train_r2": datamod.metric_r2(train.Y, train_pred),
    }
    if test is not None:
        test_pred = modelmod.predict(model, test.X)
        metrics["test_mse"] = datamod.metric_mse(test.Y, test_pred)
        metrics["test_r2"] = datamod.metric_r2(test.Y, test_pred)

    training_meta = {
        "seed": args.seed,
        "epochs_run": report.epochs_run,
        "diverged_steps": report.diverged_steps,
        "final_train_mse": report.final_train_mse,
        **metrics,
    }
    iomod.save_model(model, args.out, feature_names=train.feature_names,
                     target_names=train.target_names, training=training_meta)
    if args.report is not None:
        doc = {
            "epoch": list(range(report.epochs_run)),
            "train_loss": report.train_losses,
            "valid_loss": report.valid_losses,
            "best_epoch": report.best_epoch,
            "final": metrics,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")

    for key, value in metrics.items():
        print(f"{key} {value:.6g}")
    print(f"model written to {args.out}")
    return 0


def _resolve_eval_targets(args, extras):
    if args.targets is not None:
        return _parse_targets(args.targets)
    if extras.get("target_names"):
        return list(extras["target_names"])
    raise ValueError("the model file records no target names; pass --targets")


def _model_features(path, names, X, model, feature_names) -> np.ndarray:
    """X's columns in the model's feature order: matched by header name
    when the file has a header and the model records names, by position
    otherwise.  Header names that do not match are a ValueError naming
    the missing and the unexpected ones."""
    if X.shape[1] != model.n_features:
        raise ValueError(f"data has {X.shape[1]} feature columns but the "
                         f"model expects {model.n_features}")
    if not feature_names or names == feature_names:
        return X
    missing = [n for n in feature_names if n not in names]
    unexpected = [n for n in names if n not in feature_names]
    if not missing and not unexpected:
        return X[:, [names.index(n) for n in feature_names]]
    # a file without a header has load_table's default names, among them
    # the target columns' when evaluating
    if not set(names) - set(datamod.default_column_names(
            len(names) + model.n_targets)):
        return X
    raise ValueError(f"{path}: columns do not match the model's features "
                     f"({', '.join(feature_names)}): missing "
                     f"{', '.join(missing) or 'none'}; unexpected "
                     f"{', '.join(unexpected) or 'none'}")


def cmd_evaluate(args) -> int:
    model, extras = iomod.load_model(args.model)
    dataset = datamod.load_csv(args.data, _resolve_eval_targets(args, extras))
    if dataset.n_targets != model.n_targets:
        raise ValueError(f"data has {dataset.n_targets} target columns but "
                         f"the model predicts {model.n_targets}")
    _, test = _split(args, dataset)
    if test is not None:
        dataset = test

    X = _model_features(args.data, dataset.feature_names, dataset.X, model,
                        extras.get("feature_names"))
    pred = modelmod.predict(model, X)
    print(f"rows {dataset.n_samples}")
    for j, name in enumerate(dataset.target_names):
        mse = datamod.metric_mse(dataset.Y[:, j], pred[:, j])
        r2 = datamod.metric_r2(dataset.Y[:, j], pred[:, j])
        print(f"target {name} mse {mse:.6g} r2 {r2:.6g}")
    print(f"overall mse {datamod.metric_mse(dataset.Y, pred):.6g} "
          f"r2 {datamod.metric_r2(dataset.Y, pred):.6g}")
    return 0


def cmd_predict(args) -> int:
    model, extras = iomod.load_model(args.model)
    names, X = datamod.load_table(args.data)
    X = _model_features(args.data, names, X, model, extras.get("feature_names"))
    pred = modelmod.predict(model, X)
    target_names = (extras.get("target_names")
                    or [f"y{j + 1}" for j in range(model.n_targets)])
    lines = [",".join(target_names)]
    lines += [",".join(repr(float(v)) for v in row) for row in pred]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _state_names(model, extras) -> list[str]:
    features = (extras.get("feature_names")
                or [f"x{i + 1}" for i in range(model.n_features)])
    targets = (extras.get("target_names")
               or [f"y{j + 1}" for j in range(model.n_targets)])
    latent = [f"h{i + 1}" for i in range(model.n_latent)]
    return list(features) + list(targets) + latent


def cmd_inspect_ode(args) -> int:
    model, extras = iomod.load_model(args.model)
    ode = odeview.extract_ode(model)
    text = odeview.render_ode(ode, _state_names(model, extras),
                              threshold=args.threshold)
    if model.scaler is not None:
        text = ("# feature coordinates are standardized: "
                "x_scaled = (x - mean) / scale\n" + text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_raise_order(args) -> int:
    model, extras = iomod.load_model(args.model)
    raised = odeview.raise_order(model, args.steps)
    iomod.save_model(raised, args.out,
                     feature_names=extras.get("feature_names"),
                     target_names=extras.get("target_names"),
                     training=extras.get("training"))
    print(f"steps {model.steps} -> {raised.steps}; model written to {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    dataset = _generate(args.generator, args)
    datamod.save_csv(dataset, args.out)
    print(f"{dataset.n_samples} rows written to {args.out}")
    return 0


def _add_gen_flags(parser):
    parser.add_argument("--samples", type=int, default=10000,
                        help="rows to generate (default 10000)")
    parser.add_argument("--unimportant", type=int, default=0,
                        help="extra irrelevant features for friedman1")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="noise standard deviation for friedman1")
    parser.add_argument("--range", type=float, nargs=2, default=[-1.0, 1.0],
                        metavar=("LO", "HI"),
                        help="feature range for the linear generator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmpnn",
        description="High-order polynomial regression by iterated Taylor maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and save it")
    p.add_argument("--data", help="CSV file with features and targets")
    p.add_argument("--gen", choices=["friedman1", "linear"],
                   help="generate the training data instead of reading a file")
    _add_gen_flags(p)
    p.add_argument("--targets",
                   help="target columns: comma-separated names or a trailing count")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--latent", type=int, default=0)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch", default="256",
                   help="batch size, or 'full' (default 256)")
    p.add_argument("--lr", type=float, default=0.002)
    p.add_argument("--l1", type=float, default=0.0)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float,
                   help="hold out a random fraction for test metrics")
    p.add_argument("--split-quantile", metavar="COLUMN:Q",
                   help="train below the column quantile, test above it")
    p.add_argument("--standardize", choices=["on", "off"], default="on")
    p.add_argument("--init", choices=["identity", "perturbed"],
                   default="identity")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--report", help="JSON report file with per-epoch losses")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict targets for a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True,
                   help="CSV of feature columns only")
    p.add_argument("--out", help="output CSV (stdout when omitted)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="report metrics on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--targets",
                   help="target columns if the model file lacks names")
    p.add_argument("--test-fraction", type=float,
                   help="evaluate only a random test portion")
    p.add_argument("--split-quantile", metavar="COLUMN:Q",
                   help="evaluate only rows above the column quantile")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-ode",
                       help="print the model's equivalent ODE system")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write the system to a file instead")
    p.add_argument("--threshold", type=float, default=1e-10,
                   help="omit coefficients below this magnitude")
    p.set_defaults(func=cmd_inspect_ode)

    p = sub.add_parser("raise-order",
                       help="re-initialize a model with more steps")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="new step count, greater than the current one")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_raise_order)

    p = sub.add_parser("gen-data", help="write a synthetic dataset as CSV")
    p.add_argument("generator", choices=["friedman1", "linear"])
    _add_gen_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TmpnnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
