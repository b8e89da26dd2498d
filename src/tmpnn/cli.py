"""Command-line front end: train, predict, evaluate, inspect-ode,
raise-order, and gen-data.

Argument parsing needs only the standard library; each command imports
the numeric modules when it runs, so `--help` and usage errors start fast
and the thread-count variable below is set before numpy loads.
"""

from __future__ import annotations

import os

# honor the thread-count variable before numpy binds its thread pools
_threads = os.environ.get("TMPNN_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import math
import sys

from .errors import TmpnnError, _check_int, _check_real


def _checked(check, *bounds, **options):
    """An argparse type holding a flag's text, read by int() for _check_int
    and by float() otherwise, to that errors.py rule; argparse names the
    flag in the usage error, so the rule's message goes without a name."""
    def parse(text: str):
        try:
            value = (int if check is _check_int else float)(text)
        except ValueError:
            value = text  # the rule rejects it and quotes it
        try:
            check("", value, *bounds, **options)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
        return value
    return parse


_count, _positive = _checked(_check_int, 0), _checked(_check_int, 1)
_non_negative, _fraction = (_checked(_check_real, 0),
                            _checked(_check_real, 0, 1, strict=True))


def _parse_targets(spec: str):
    """--targets: a trailing count, held to _positive, or comma-separated
    column names, at least one."""
    try:
        int(spec)
    except ValueError:
        names = [name.strip() for name in spec.split(",") if name.strip()]
        if not names:
            raise argparse.ArgumentTypeError(f"no column name in {spec!r}")
        return names
    return _positive(spec)


def _parse_batch(spec: str):
    """--batch: a positive integer or 'full'."""
    return "full" if spec == "full" else _positive(spec)


def _parse_column_quantile(spec: str) -> tuple[str, float]:
    """--split-quantile: COLUMN:Q as (column, q); the column may hold ':'."""
    column, _, q = spec.rpartition(":")
    if not column:
        raise argparse.ArgumentTypeError(f"expected COLUMN:Q, got {spec!r}")
    return column, _fraction(q)


def _generate(generator: str, args):
    from . import data as datamod
    if generator == "friedman1":
        return datamod.gen_friedman1(args.samples, n_unimportant=args.unimportant,
                                     noise_std=args.noise, seed=args.seed)
    return datamod.gen_noisy_linear(args.samples, x_range=tuple(args.range),
                                    seed=args.seed)


def _load_training_data(args):
    from . import data as datamod
    if args.gen is not None:
        return _generate(args.gen, args)
    if args.targets is None:
        raise ValueError("--targets is required with --data")
    return datamod.load_csv(args.data, args.targets)


def _split(args, dataset):
    """(train, test) per --split-quantile or --test-fraction; test is None
    when neither is given."""
    from . import data as datamod
    if args.split_quantile is not None:
        return datamod.split_quantile(dataset, *args.split_quantile)
    if args.test_fraction is not None:
        return datamod.split_random(dataset, args.test_fraction, args.seed)
    return dataset, None


def cmd_train(args) -> int:
    from . import data as datamod, io as iomod, model as modelmod
    train, test = _split(args, _load_training_data(args))

    model = modelmod.TmpnnModel.create(
        train.n_features, train.n_targets, n_latent=args.latent,
        order=args.order, steps=args.steps, init=args.init, seed=args.seed,
        reg_l1=args.l1, reg_l2=args.l2,
        standardize=(args.standardize == "on"))
    config = modelmod.TrainConfig(epochs=args.epochs,
                                  batch_size=args.batch,
                                  learning_rate=args.lr,
                                  shuffle_seed=args.seed)
    # without early_stop the test split only adds its losses to the report
    report = modelmod.fit(model, train, test if args.report else None,
                          config=config)

    metrics = {}
    for split, part in (("train", train), ("test", test)):
        if part is not None:  # scored as fit scores its own passes
            pred, diverged = modelmod._guarded_predict(model, part.X)
            if diverged:
                print(f"warning: the model diverged on the {split} split, "
                      "so its mse is inf and its r2 -inf", file=sys.stderr)
            metrics[f"{split}_mse"] = datamod.metric_mse(part.Y, pred)
            try:
                metrics[f"{split}_r2"] = datamod.metric_r2(part.Y, pred)
            except ValueError as exc:  # a constant target column
                print(f"warning: {exc} in the {split} split, so its r2 is "
                      "nan", file=sys.stderr)
                metrics[f"{split}_r2"] = math.nan

    def null(value):  # JSON has no inf: a non-finite number is written null
        return value if math.isfinite(value) else None

    written = {key: null(value) for key, value in metrics.items()}
    training_meta = {
        "seed": args.seed,
        "epochs_run": report.epochs_run,
        "diverged_steps": report.diverged_steps,
        **written,
    }
    iomod.save_model(model, args.out, feature_names=train.feature_names,
                     target_names=train.target_names, training=training_meta)
    if args.report is not None:
        # fit records as inf an epoch mean that overflowed and a held-out
        # pass that diverged or overflowed
        iomod._write_json(args.report, {
            "epoch": list(range(report.epochs_run)),
            "train_loss": [null(v) for v in report.train_losses],
            "valid_loss": report.valid_losses and [
                null(v) for v in report.valid_losses],
            "best_epoch": report.best_epoch,
            "final": written,
        })

    for key, value in metrics.items():
        print(f"{key} {value:.6g}")
    print(f"model written to {args.out}")
    return 0


def _model_columns(path, what, names, values, model, extras, headed):
    """(names, values) of a file's what ("feature" or "target") columns in
    the model's order: matched by name when the file is headed (by
    load_table's decision) and the model records names, by position
    otherwise, under the names the model records.  A column count other
    than the model's, or header names that do not match, is a ValueError;
    a mismatch names the missing and the unexpected ones."""
    from . import data as datamod
    count, recorded = getattr(model, f"n_{what}s"), extras.get(f"{what}_names")
    if values.shape[1] != count:
        raise ValueError(f"data has {values.shape[1]} {what} columns but "
                         f"the model expects {count}")
    if not (recorded and headed) or names == recorded:
        return recorded or names, values
    missing = [n for n in recorded if n not in names]
    unexpected = [n for n in names if n not in recorded]
    if missing or unexpected:
        raise ValueError(f"{path}: columns do not match the model's {what}s "
                         f"({', '.join(recorded)}): missing "
                         f"{', '.join(missing) or 'none'}; unexpected "
                         f"{', '.join(unexpected) or 'none'}")
    return recorded, values[:, datamod._columns(names, recorded, what)]


def cmd_evaluate(args) -> int:
    from . import data as datamod, io as iomod, model as modelmod
    model, extras = iomod.load_model(args.model)
    table = datamod.load_table(args.data)
    # targets by name (a headerless file's are c1, c2, ...) or --targets N
    wanted = args.targets or extras.get("target_names")
    try:
        if not wanted:
            raise ValueError("the model file records no target names")
        dataset = datamod._with_targets(*table, wanted)
    except ValueError as exc:
        if args.targets:
            raise
        raise ValueError(f"{args.data}: {exc}; pass --targets") from None
    _, test = _split(args, dataset)
    dataset = test or dataset
    _, X = _model_columns(args.data, "feature", dataset.feature_names,
                          dataset.X, model, extras, table.headed)
    targets, Y = _model_columns(args.data, "target", dataset.target_names,
                                dataset.Y, model, extras, table.headed)
    pred = modelmod.predict(model, X)
    print(f"rows {dataset.n_samples}")
    constant = []  # scored as train scores a split: r2 nan, one warning
    for j, name in enumerate(targets):
        mse = datamod.metric_mse(Y[:, j], pred[:, j])
        try:
            r2 = datamod.metric_r2(Y[:, j], pred[:, j])
        except ValueError:  # a constant target column
            r2 = math.nan
            constant.append(name)
        print(f"target {name} mse {mse:.6g} r2 {r2:.6g}")
    r2 = math.nan if constant else datamod.metric_r2(Y, pred)
    print(f"overall mse {datamod.metric_mse(Y, pred):.6g} r2 {r2:.6g}")
    if constant:
        print(f"warning: {args.data}: R^2 is undefined for the constant "
              f"target column {', '.join(constant)}, so its r2 and the "
              "overall r2 are nan", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    from . import data as datamod, io as iomod, model as modelmod
    model, extras = iomod.load_model(args.model)
    table = datamod.load_table(args.data)
    _, X = _model_columns(args.data, "feature", *table, model, extras,
                          table.headed)
    pred = modelmod.predict(model, X)
    datamod._write_text(args.out, datamod.csv_text_blocks(
        _target_names(model, extras), pred))
    return 0


def _target_names(model, extras) -> list[str]:
    return (extras.get("target_names")
            or [f"y{j + 1}" for j in range(model.n_targets)])


def _state_names(model, extras) -> list[str]:
    features = (extras.get("feature_names")
                or [f"x{i + 1}" for i in range(model.n_features)])
    latent = [f"h{i + 1}" for i in range(model.n_latent)]
    return list(features) + _target_names(model, extras) + latent


def cmd_inspect_ode(args) -> int:
    from . import data as datamod, io as iomod, odeview
    model, extras = iomod.load_model(args.model)
    ode = odeview.extract_ode(model)
    text = odeview.render_ode(ode, _state_names(model, extras),
                              threshold=args.threshold)
    if model.scaler is not None:
        text = ("# feature coordinates are standardized: "
                "x_scaled = (x - mean) / scale\n" + text)
    datamod._write_text(args.out, [text, "\n"])
    return 0


def cmd_raise_order(args) -> int:
    from . import io as iomod, odeview
    model, extras = iomod.load_model(args.model)
    _check_int("--steps", args.steps, model.steps + 1)
    raised = odeview.raise_order(model, args.steps)
    # extras holds the names and the training record save_model takes
    iomod.save_model(raised, args.out, **extras)
    print(f"steps {model.steps} -> {raised.steps}; model written to {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    from . import data as datamod
    dataset = _generate(args.generator, args)
    datamod.save_csv(dataset, args.out)
    print(f"{dataset.n_samples} rows written to {args.out}")
    return 0


def _add_gen_flags(parser):
    parser.add_argument("--samples", type=_positive, default=10000,
                        help="rows to generate (default 10000)")
    parser.add_argument("--unimportant", type=_count, default=0,
                        help="extra irrelevant features for friedman1")
    parser.add_argument("--noise", type=_non_negative, default=0.0,
                        help="noise standard deviation for friedman1")
    parser.add_argument("--range", type=_checked(_check_real), nargs=2,
                        default=[-1.0, 1.0], metavar=("LO", "HI"),
                        help="feature range for the linear generator")


def _add_split_flags(parser, fraction_help, quantile_help):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--test-fraction", type=_fraction, help=fraction_help)
    group.add_argument("--split-quantile", metavar="COLUMN:Q",
                       type=_parse_column_quantile, help=quantile_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmpnn",
        description="High-order polynomial regression by iterated Taylor maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and save it")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="CSV file with features and targets")
    source.add_argument("--gen", choices=["friedman1", "linear"],
                        help="generate the training data instead")
    _add_gen_flags(p)
    p.add_argument("--targets", type=_parse_targets,
                   help="target columns: comma-separated names or a trailing count")
    p.add_argument("--order", type=_positive, default=3)
    p.add_argument("--steps", type=_positive, default=5)
    p.add_argument("--latent", type=_count, default=0)
    p.add_argument("--epochs", type=_positive, default=1000)
    p.add_argument("--batch", type=_parse_batch, default="256",
                   help="batch size, or 'full' (default 256)")
    p.add_argument("--lr", type=_checked(_check_real, 0, strict=True),
                   default=0.002)
    p.add_argument("--l1", type=_non_negative, default=0.0)
    p.add_argument("--l2", type=_non_negative, default=0.0)
    p.add_argument("--seed", type=_count, default=0)
    _add_split_flags(p, "hold out a random fraction for test metrics",
                     "train below the column quantile, test above it")
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
    p.add_argument("--targets", type=_parse_targets,
                   help="target columns (default: the model's target names)")
    _add_split_flags(p, "evaluate only a random test portion",
                     "evaluate only rows above the column quantile")
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-ode",
                       help="print the model's equivalent ODE system")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write the system to a file instead")
    p.add_argument("--threshold", type=_non_negative, default=1e-10,
                   help="omit coefficients below this magnitude")
    p.set_defaults(func=cmd_inspect_ode)

    p = sub.add_parser("raise-order",
                       help="re-initialize a model with more steps")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=_positive, required=True,
                   help="new step count, greater than the current one")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_raise_order)

    p = sub.add_parser("gen-data", help="write a synthetic dataset as CSV")
    p.add_argument("generator", choices=["friedman1", "linear"])
    _add_gen_flags(p)
    p.add_argument("--seed", type=_count, default=0)
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
