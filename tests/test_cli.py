"""End-to-end command-line flows, run in process through main()."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tmpnn import (TmpnnModel, TrainConfig, gen_noisy_linear, load_model,
                   metric_r2, predict, save_model, split_quantile)
from tmpnn.cli import build_parser, main
from tmpnn.data import _BLOCK_ROWS, load_csv, load_table
from tmpnn.optim import ALPHA


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def linear_csv(tmp_path):
    path = tmp_path / "linear.csv"
    assert run("gen-data", "linear", "--samples", 200, "--seed", 3,
               "--out", path) == 0
    return path


@pytest.fixture()
def trained(tmp_path, linear_csv):
    model_path = tmp_path / "model.json"
    code = run("train", "--data", linear_csv, "--targets", "y",
               "--order", 2, "--steps", 3, "--epochs", 120,
               "--batch", 32, "--seed", 0, "--out", model_path)
    assert code == 0
    return model_path, linear_csv


def test_gen_data_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run("gen-data", "friedman1", "--samples", 50, "--unimportant", 2,
               "--noise", 0.1, "--seed", 1, "--out", out) == 0
    assert "50 rows" in capsys.readouterr().out
    ds = load_csv(out, ["y"])
    assert ds.n_features == 7
    assert ds.n_samples == 50


# -1e308 in digits: argparse would take "-1e308" for an option
WIDE = [str(-10 ** 308), "1e308"]


# explicit ids: each case keeps its name when the list changes
@pytest.mark.parametrize("argv,name", [
    pytest.param(["gen-data", "linear", "--range", *WIDE], "x_range",
                 id="argv1-x_range"),
    pytest.param(["train", "--gen", "linear", "--range", *WIDE], "x_range",
                 id="argv3-x_range"),
])
def test_a_bad_generator_setting_is_one_error_line_naming_it(tmp_path, argv,
                                                             name, capsys):
    # finite bounds without a finite width used to end in numpy's
    # OverflowError with a traceback; a bound that is not finite is a usage
    # error (test_a_malformed_flag_value_is_a_usage_error_naming_the_flag)
    assert run(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_train_reports_metrics_and_saves_model(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    report_path = tmp_path / "r.json"
    code = run("train", "--gen", "linear", "--samples", 150, "--seed", 2,
               "--order", 2, "--steps", 3, "--epochs", 80, "--batch", 32,
               "--test-fraction", 0.2, "--out", model_path,
               "--report", report_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "train_mse" in out and "test_r2" in out
    assert f"model written to {model_path}" in out

    model, extras = load_model(model_path)
    assert extras["feature_names"] == ["x"]
    assert extras["target_names"] == ["y"]
    assert extras["training"]["epochs_run"] == 80
    assert extras["training"]["seed"] == 2

    report = json.loads(report_path.read_text())
    assert len(report["train_loss"]) == 80
    assert report["final"]["train_r2"] > 0.9


def test_train_report_holds_the_held_out_loss(tmp_path):
    # valid_loss used to be null with a test split; the split's losses
    # leave the fit, and so the model file, as they were
    argv = ["train", "--gen", "friedman1", "--samples", 300, "--epochs", 3,
            "--order", 2, "--steps", 2, "--test-fraction", 0.25]
    assert run(*argv, "--out", tmp_path / "plain.json") == 0
    report_path = tmp_path / "r.json"
    assert run(*argv, "--out", tmp_path / "m.json",
               "--report", report_path) == 0
    assert ((tmp_path / "m.json").read_bytes()
            == (tmp_path / "plain.json").read_bytes())
    report = json.loads(report_path.read_text())
    valid = report["valid_loss"]
    assert len(valid) == len(report["train_loss"]) == 3
    assert np.isfinite(valid).all()
    assert report["best_epoch"] == int(np.argmin(valid))


def test_train_report_writes_an_overflowed_held_out_loss_as_null(tmp_path,
                                                                  capsys):
    # fit records inf for an epoch whose held-out pass overflows (here the
    # first three, on extrapolated rows with unscaled features); JSON has
    # no inf, so train used to exit 1 after saving the model, leaving the
    # report cut off mid-array.  With seed 3 the final test MSE overflows
    # too: train used to exit 1 with the model file cut off at "test_mse"
    model_path, report_path = tmp_path / "m.json", tmp_path / "r.json"
    for seed, overflowed in ((1, False), (3, True)):
        assert run("train", "--gen", "linear", "--samples", 200, "--range",
                   -1, 10, "--seed", seed, "--split-quantile", "x:0.8",
                   "--standardize", "off", "--order", 3, "--steps", 5,
                   "--epochs", 20, "--batch", 32, "--lr", 0.3,
                   "--out", model_path, "--report", report_path) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(report_path.read_text())
        valid = report["valid_loss"]
        assert len(valid) == 20
        assert None in valid
        assert np.isfinite([v for v in valid if v is not None]).all()
        model, extras = load_model(model_path)
        assert np.isfinite(predict(model, np.array([[0.5]]))).all()
        test_mse = extras["training"]["test_mse"]
        assert (test_mse is None) == overflowed
        assert report["final"]["test_mse"] == test_mse
    # every epoch's training-loss mean overflows: JSON has no inf, so the
    # report writes each as null
    data = tmp_path / "o.csv"
    data.write_text("a,y\n" + "".join(
        f"{0.1 * i!r},{1.3e154 * (1 + 0.01 * i)!r}\n" for i in range(6)))
    assert run("train", "--data", data, "--targets", "y", "--batch", 1,
               "--standardize", "off", "--epochs", 2, "--out", model_path,
               "--report", report_path) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report_path.read_text())["train_loss"] == [None, None]
    assert load_model(model_path)[1]["training"]["train_mse"] is None


def test_train_keeps_a_fit_whose_test_pass_diverges(tmp_path, capsys):
    # fit returns (40 epochs, no diverged step), then the forward pass over
    # the extrapolation split diverges: train used to exit 1 at that pass
    # with no model written
    model_path = tmp_path / "d.json"
    assert run("train", "--gen", "linear", "--samples", 200, "--range", -1, 10,
               "--seed", 1, "--split-quantile", "x:0.8", "--standardize",
               "off", "--order", 4, "--steps", 8, "--epochs", 40,
               "--out", model_path) == 0
    out, err = capsys.readouterr()
    assert "test_mse inf" in out and "test_r2 -inf" in out
    assert "test split" in err and err.count("\n") == 1
    model, extras = load_model(model_path)
    train, _ = split_quantile(gen_noisy_linear(200, (-1, 10), seed=1),
                              "x", 0.8)
    assert np.isfinite(predict(model, train.X)).all()
    training = extras["training"]
    assert training["test_mse"] is None and training["test_r2"] is None
    assert training["epochs_run"] == 40
    assert "final_train_mse" not in training
    # a constant target column leaves R^2 undefined on both splits: each
    # scores nan with one warning line, and the fit is kept
    data = tmp_path / "c.csv"
    rows = np.random.default_rng(4).uniform(-1, 1, size=(40, 2))
    data.write_text("a,b,y,k\n" + "".join(f"{a!r},{b!r},{a * b!r},2.0\n"
                                          for a, b in rows.tolist()))
    assert run("train", "--data", data, "--targets", "y,k", "--epochs", 5,
               "--test-fraction", 0.25, "--out", model_path) == 0
    out, err = capsys.readouterr()
    assert "train_r2 nan" in out and "test_r2 nan" in out
    lines = err.splitlines()
    assert len(lines) == 2
    assert "train split" in lines[0] and "test split" in lines[1]
    assert all("R^2 is undefined" in line for line in lines)
    training = load_model(model_path)[1]["training"]
    assert training["train_r2"] is None and training["test_r2"] is None
    assert np.isfinite([training["train_mse"], training["test_mse"]]).all()


def test_train_quantile_split(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    code = run("train", "--gen", "linear", "--samples", 200, "--seed", 5,
               "--order", 2, "--steps", 3, "--epochs", 60, "--batch", "full",
               "--split-quantile", "x:0.8", "--out", model_path)
    assert code == 0
    assert "test_mse" in capsys.readouterr().out


def test_predict_writes_predictions(tmp_path, trained, capsys):
    model_path, data_csv = trained
    features = tmp_path / "features.csv"
    names, rows = load_table(data_csv)
    features.write_text("x\n" + "\n".join(repr(float(v))
                                          for v in rows[:10, 0]) + "\n")

    out_path = tmp_path / "pred.csv"
    assert run("predict", "--model", model_path, "--data", features,
               "--out", out_path) == 0
    header, pred = load_table(out_path)
    assert header == ["y"]
    model, _ = load_model(model_path)
    np.testing.assert_array_equal(pred, predict(model, rows[:10, :1]))

    # stdout mode emits the same CSV
    assert run("predict", "--model", model_path, "--data", features) == 0
    assert capsys.readouterr().out.splitlines()[0] == "y"


def _write_features(path, names, rows):
    lines = [",".join(names)] if names else []
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_predict_matches_columns_by_header(tmp_path):
    model_path = tmp_path / "m.json"
    assert run("train", "--gen", "friedman1", "--samples", 200, "--seed", 4,
               "--order", 2, "--steps", 2, "--epochs", 5,
               "--out", model_path) == 0
    X = np.random.default_rng(4).uniform(size=(20, 5))
    names = ["x1", "x2", "x3", "x4", "x5"]
    order = [3, 0, 4, 2, 1]
    outputs = {}
    for label, header, rows in [
            ("in_order", names, X),
            ("reordered", [names[i] for i in order], X[:, order]),
            ("headerless", None, X)]:
        _write_features(tmp_path / f"{label}.csv", header, rows)
        outputs[label] = tmp_path / f"{label}_pred.csv"
        assert run("predict", "--model", model_path, "--data",
                   tmp_path / f"{label}.csv", "--out", outputs[label]) == 0
    expected = outputs["in_order"].read_bytes()
    assert outputs["reordered"].read_bytes() == expected
    assert outputs["headerless"].read_bytes() == expected


def test_predict_reads_a_header_of_default_names_by_name(tmp_path, capsys):
    # a header equal to the names of a headerless file's columns (c1, c2)
    # used to be read by position, so its swapped columns went to the
    # model swapped
    rows = np.random.default_rng(6).uniform(size=(60, 3))
    data = tmp_path / "c2c1y.csv"
    _write_features(data, ["c2", "c1", "y"], rows)
    model_path = tmp_path / "m.json"
    assert run("train", "--data", data, "--targets", "y", "--epochs", 30,
               "--out", model_path) == 0
    X = rows[:5, :2]
    outputs = []
    for header, columns in ((["c2", "c1"], X), (None, X),
                            (["c1", "c2"], X[:, ::-1])):
        path = tmp_path / "features.csv"
        _write_features(path, header, columns)
        capsys.readouterr()
        assert run("predict", "--model", model_path, "--data", path) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_evaluate_reads_a_header_of_default_names_by_name(tmp_path, capsys):
    # evaluate took a file whose names were c1, c2, c3 in any order for a
    # headerless one, and so scored swapped columns by position
    rows = np.random.default_rng(7).uniform(size=(60, 3))
    swapped = tmp_path / "c2c1c3.csv"
    _write_features(swapped, ["c2", "c1", "c3"], rows[:, [1, 0, 2]])
    # a headerless training file records the names a header c1,c2,c3 gives
    for header in (["c1", "c2", "c3"], None):
        data, model_path = tmp_path / "d.csv", tmp_path / "m.json"
        _write_features(data, header, rows)
        assert run("train", "--data", data, "--targets", "c3", "--epochs", 5,
                   "--order", 2, "--steps", 2, "--out", model_path) == 0
        outputs = []
        for path in (data, swapped):
            capsys.readouterr()
            assert run("evaluate", "--model", model_path, "--data", path) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                    reason="needs /dev/stdin")
def test_predict_matches_a_piped_header_by_name(tmp_path):
    # the header decision came from a second read of the file, which a
    # pipe answers with nothing, so a piped header was read by position:
    # swapped columns went in swapped and foreign names went unnoticed
    rows = np.random.default_rng(8).uniform(size=(60, 3))
    data, model_path = tmp_path / "c2c1y.csv", tmp_path / "m.json"
    _write_features(data, ["c2", "c1", "y"], rows)
    assert run("train", "--data", data, "--targets", "y", "--epochs", 5,
               "--order", 2, "--steps", 2, "--out", model_path) == 0
    X = rows[:5, :2]
    in_order, expected = tmp_path / "x.csv", tmp_path / "y.csv"
    _write_features(in_order, ["c2", "c1"], X)
    assert run("predict", "--model", model_path, "--data", in_order,
               "--out", expected) == 0

    def piped(header, columns):
        _write_features(tmp_path / "piped.csv", header, columns)
        return subprocess.run(
            [sys.executable, "-m", "tmpnn.cli", "predict", "--model",
             str(model_path), "--data", "/dev/stdin"],
            input=(tmp_path / "piped.csv").read_text(), capture_output=True,
            text=True, timeout=120)

    proc = piped(["c1", "c2"], X[:, ::-1])
    assert (proc.returncode, proc.stdout) == (0, expected.read_text())
    proc = piped(["a", "b"], X)
    assert proc.returncode == 1
    assert "columns do not match the model's features" in proc.stderr


def test_a_header_that_names_a_column_twice_is_one_error_line(tmp_path,
                                                             capsys):
    # both used to exit 0: train saved a model with feature_names a and a,
    # and predict matched the columns of a model without names by position
    rows = np.random.default_rng(5).uniform(size=(60, 3))
    data = tmp_path / "aay.csv"
    _write_features(data, ["a", "a", "y"], rows)
    model_path = tmp_path / "m.json"
    assert run("train", "--data", data, "--targets", "y", "--epochs", 2,
               "--out", model_path) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: column 'a' is named twice\n")
    assert not model_path.exists()

    save_model(TmpnnModel.create(2, 1, order=2, steps=2), model_path)
    features = tmp_path / "aa.csv"
    _write_features(features, ["a", "a"], rows[:, :2])
    assert run("predict", "--model", model_path, "--data", features) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {features}: column 'a' is named twice\n"


def test_predict_writes_the_rows_of_in_process_predict_exactly(tmp_path,
                                                              capsys):
    # 3 targets and more rows than one output block
    rng = np.random.default_rng(8)
    model = TmpnnModel.create(2, 3, n_latent=1, order=2, steps=3)
    model.map.delta = model.map.delta + rng.normal(0, 0.05,
                                                   model.map.delta.shape)
    model_path = tmp_path / "m3.json"
    save_model(model, model_path, feature_names=["u", "v"],
               target_names=["ya", "yb", "yc"])
    X = rng.uniform(-1, 1, size=(_BLOCK_ROWS + 123, 2))
    X[7] = [-0.0, 5e-324]
    features = tmp_path / "uv.csv"
    _write_features(features, ["u", "v"], X)

    loaded, _ = load_model(model_path)
    expected = "ya,yb,yc\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in predict(loaded, X).tolist())
    out_path = tmp_path / "pred.csv"
    assert run("predict", "--model", model_path, "--data", features,
               "--out", out_path) == 0
    assert out_path.read_bytes() == expected.encode("utf-8")
    capsys.readouterr()
    assert run("predict", "--model", model_path, "--data", features) == 0
    assert capsys.readouterr().out == expected


def test_predict_header_mismatch_names_the_columns(tmp_path, trained, capsys):
    model_path, _ = trained
    bad = tmp_path / "bad.csv"
    _write_features(bad, ["z"], np.zeros((2, 1)))
    assert run("predict", "--model", model_path, "--data", bad) == 1
    err = capsys.readouterr().err
    assert "missing x" in err and "unexpected z" in err


def test_predict_rejects_non_finite_row(tmp_path, trained, capsys):
    model_path, _ = trained
    features = tmp_path / "nan.csv"
    features.write_text("x\n0.5\nnan\n")
    assert run("predict", "--model", model_path, "--data", features) == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "learning rate" not in err
    # finite, but past float64 once standardized (the scale is below 1):
    # it used to warn "overflow encountered in divide", then blame the map
    features.write_text("x\n0.5\n1e308\n")
    assert run("predict", "--model", model_path, "--data", features) == 1
    assert capsys.readouterr().err == (
        "error: a standardized feature overflows float64 in the start state "
        "(batch row 1)\n")


def test_evaluate_prints_per_target_metrics(trained, capsys):
    model_path, data_csv = trained
    assert run("evaluate", "--model", model_path, "--data", data_csv) == 0
    out = capsys.readouterr().out
    assert "rows 200" in out
    assert "target y mse" in out
    assert "overall mse" in out

    assert run("evaluate", "--model", model_path, "--data", data_csv,
               "--split-quantile", "x:0.75") == 0
    assert "rows 50" in capsys.readouterr().out

    # a constant target column is scored as train scores a split: it used
    # to print "rows 3", then exit 1 on the undefined R^2
    constant = data_csv.parent / "constant.csv"
    constant.write_text("x,y\n0.1,1\n0.2,1\n0.3,1\n")
    assert run("evaluate", "--model", model_path, "--data", constant) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "rows 3"
    assert lines[1].startswith("target y mse ") and lines[1].endswith(" r2 nan")
    assert lines[2].startswith("overall mse ") and lines[2].endswith(" r2 nan")
    assert err.count("\n") == 1 and str(constant) in err
    assert "constant target column y" in err


@pytest.fixture()
def friedman_model(tmp_path):
    data_csv = tmp_path / "friedman.csv"
    model_path = tmp_path / "friedman.json"
    assert run("gen-data", "friedman1", "--samples", 200, "--seed", 4,
               "--out", data_csv) == 0
    assert run("train", "--data", data_csv, "--targets", "y", "--order", 2,
               "--steps", 2, "--epochs", 5, "--out", model_path) == 0
    names, table = load_table(data_csv)
    return model_path, names, table


def test_evaluate_matches_columns_by_header(tmp_path, friedman_model, capsys):
    model_path, names, table = friedman_model
    reordered = list(reversed(range(len(names))))  # target first
    outputs = []
    for columns in (range(len(names)), reordered):
        path = tmp_path / "eval.csv"
        _write_features(path, [names[i] for i in columns], table[:, columns])
        capsys.readouterr()
        assert run("evaluate", "--model", model_path, "--data", path) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def test_evaluate_header_mismatch_names_the_columns(tmp_path, friedman_model,
                                                    capsys):
    model_path, names, table = friedman_model
    bad = tmp_path / "bad.csv"
    _write_features(bad, ["z" if n == "x5" else n for n in names], table)
    capsys.readouterr()
    assert run("evaluate", "--model", model_path, "--data", bad) == 1
    err = capsys.readouterr().err
    assert "missing x5" in err and "unexpected z" in err


def test_evaluate_matches_targets_by_name(tmp_path, capsys):
    # targets used to be taken in the order --targets or the file gives,
    # so y2's truth was scored against y1's prediction under y2's name
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (120, 2))
    Y = np.stack([X[:, 0] * X[:, 1], 3 * X.sum(1) + 2], 1)
    data = tmp_path / "d.csv"
    _write_features(data, ["a", "b", "y1", "y2"], np.hstack([X, Y]))
    model_path = tmp_path / "m.json"
    assert run("train", "--data", data, "--targets", "y1,y2", "--order", 2,
               "--steps", 2, "--epochs", 20, "--out", model_path) == 0
    capsys.readouterr()
    assert run("evaluate", "--model", model_path, "--data", data) == 0
    want = capsys.readouterr().out
    assert "target y1 " in want and "target y2 " in want

    swapped = tmp_path / "swapped.csv"
    _write_features(swapped, ["a", "b", "y2", "y1"], np.hstack([X, Y[:, ::-1]]))
    for path, targets in ((data, "y2,y1"), (swapped, "2"),
                          (swapped, "y2,y1")):
        assert run("evaluate", "--model", model_path, "--data", path,
                   "--targets", targets) == 0
        assert capsys.readouterr().out == want

    # a file that is not headed names its columns c1..c4, so the model's
    # y1 and y2 are not found there, and --targets says where they are;
    # evaluate used to take the last columns whatever the model recorded
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("".join(data.read_text().splitlines(True)[1:]))
    capsys.readouterr()
    assert run("evaluate", "--model", model_path, "--data", headerless) == 1
    assert "--targets" in capsys.readouterr().err
    # a column --targets names is one the file must have: no hint then
    assert run("evaluate", "--model", model_path, "--data", data,
               "--targets", "y1,z") == 1
    err = capsys.readouterr().err
    assert "'z'" in err and "--targets" not in err
    assert run("evaluate", "--model", model_path, "--data", headerless,
               "--targets", 2) == 0
    assert capsys.readouterr().out == want

    # so too where the targets are not last: the headerless copy of a file
    # headed y,a,b used to score b against the model's y, with exit 0
    yab = tmp_path / "yab.csv"
    _write_features(yab, ["y", "a", "b"], np.hstack([Y[:, :1], X]))
    yab_model = tmp_path / "yab.json"
    assert run("train", "--data", yab, "--targets", "y", "--order", 2,
               "--steps", 2, "--epochs", 20, "--out", yab_model) == 0
    capsys.readouterr()
    assert run("evaluate", "--model", yab_model, "--data", yab) == 0
    yab_want = capsys.readouterr().out
    yab_headerless = tmp_path / "yab_headerless.csv"
    yab_headerless.write_text("".join(yab.read_text().splitlines(True)[1:]))
    assert run("evaluate", "--model", yab_model,
               "--data", yab_headerless) == 1
    assert "--targets" in capsys.readouterr().err
    assert run("evaluate", "--model", yab_model, "--data", yab_headerless,
               "--targets", "c1") == 0
    assert capsys.readouterr().out == yab_want

    # a model trained on a headerless file records c1, c2, ... and finds
    # them by name there, wherever its targets lie
    first = tmp_path / "first.json"
    assert run("train", "--data", headerless, "--targets", "c3",
               "--order", 2, "--steps", 2, "--epochs", 5, "--out", first) == 0
    outputs = []
    for targets in (("--targets", "c3"), ()):
        capsys.readouterr()
        assert run("evaluate", "--model", first, "--data", headerless,
                   *targets) == 0
        outputs.append(capsys.readouterr().out)
    assert "target c3 " in outputs[0] and outputs[1] == outputs[0]

    # a target name the model does not record is named, as a feature's is
    renamed = tmp_path / "renamed.csv"
    _write_features(renamed, ["a", "b", "y1", "z"], np.hstack([X, Y]))
    assert run("evaluate", "--model", model_path, "--data", renamed,
               "--targets", "2") == 1
    err = capsys.readouterr().err
    assert "missing y2" in err and "unexpected z" in err

    # a target named twice used to train a model of two targets named y1
    twice = tmp_path / "twice.json"
    assert run("train", "--data", data, "--targets", "y1,y1",
               "--out", twice) == 1
    assert capsys.readouterr().err == (
        "error: target column 'y1' is named twice\n")
    assert not twice.exists()


def test_inspect_ode_renders_equations(trained, capsys):
    model_path, _ = trained
    assert run("inspect-ode", "--model", model_path) == 0
    out = capsys.readouterr().out
    assert "dx/dτ" in out
    assert "dy/dτ" in out
    assert "standardized" in out  # default training standardizes features


def test_raise_order_cli_preserves_ode(tmp_path, trained, capsys):
    model_path, data_csv = trained
    out_path = tmp_path / "raised.json"
    assert run("raise-order", "--model", model_path, "--steps", 6,
               "--out", out_path) == 0
    assert "3 -> 6" in capsys.readouterr().out

    low, extras_low = load_model(model_path)
    high, extras_high = load_model(out_path)
    assert high.steps == 6
    np.testing.assert_array_equal(high.map.delta, low.map.delta / 2)
    assert extras_high["feature_names"] == extras_low["feature_names"]

    # the finer discretization keeps predictions in the same neighborhood
    # and the model still fits the data it was trained on
    ds = load_csv(data_csv, ["y"])
    np.testing.assert_allclose(predict(high, ds.X), predict(low, ds.X),
                               atol=0.25)
    assert metric_r2(ds.Y, predict(high, ds.X)) > 0.75


def test_trained_model_fits_the_line(trained):
    model_path, data_csv = trained
    model, _ = load_model(model_path)
    ds = load_csv(data_csv, ["y"])
    assert metric_r2(ds.Y, predict(model, ds.X)) > 0.9


@pytest.mark.parametrize("argv,fragment", [
    pytest.param(["train", "--data", "missing.csv", "--out", "m.json"],
                 "--targets is required", id="argv2---targets is required"),
])
def test_usage_errors_exit_1_with_message(argv, fragment, capsys):
    assert main(argv) == 1
    assert fragment in capsys.readouterr().err


def test_missing_file_errors_exit_1(tmp_path, capsys):
    assert run("predict", "--model", tmp_path / "absent.json",
               "--data", tmp_path / "absent.csv") == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_requires_targets_when_unrecorded(tmp_path, trained, capsys):
    model_path, data_csv = trained
    # strip the recorded names to simulate a hand-built model file
    doc = json.loads(model_path.read_text())
    doc["target_names"] = None
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    assert run("evaluate", "--model", stripped, "--data", data_csv) == 1
    assert "--targets" in capsys.readouterr().err
    assert run("evaluate", "--model", stripped, "--data", data_csv,
               "--targets", "y") == 0
    capsys.readouterr()


def test_width_mismatch_is_reported(tmp_path, trained, capsys):
    model_path, _ = trained
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n")
    assert run("predict", "--model", model_path, "--data", wide) == 1
    assert "expects 1" in capsys.readouterr().err


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data"])  # missing value
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    (["train", "--gen", "linear", "--batch", "abc", "--out", "m.json"],
     "--batch"),
    (["train", "--gen", "linear", "--split-quantile", "x:abc",
      "--out", "m.json"], "--split-quantile"),
    (["train", "--gen", "linear", "--split-quantile", "0.5",
      "--out", "m.json"], "--split-quantile"),
    (["evaluate", "--model", "m.json", "--data", "d.csv",
      "--split-quantile", "x:"], "--split-quantile"),
    (["train", "--gen", "linear", "--batch", "0", "--out", "m.json"],
     "--batch"),
    (["train", "--gen", "linear", "--batch", "-3", "--out", "m.json"],
     "--batch"),
    (["gen-data", "linear", "--range", "0", "inf", "--out", "d.csv"],
     "--range"),
    (["train", "--gen", "linear", "--range", "0", "inf", "--out", "m.json"],
     "--range"),
    (["gen-data", "friedman1", "--noise", "nan", "--out", "d.csv"],
     "--noise"),
    (["train", "--gen", "linear", "--data", "x.csv", "--targets", "y",
      "--out", "m.json"], "--data"),
    (["train", "--gen", "linear", "--test-fraction", "0.2",
      "--split-quantile", "x:0.5", "--out", "m.json"], "--split-quantile"),
    (["gen-data", "linear", "--samples", "0", "--out", "d.csv"], "--samples"),
    (["train", "--gen", "linear", "--order", "0", "--out", "m.json"],
     "--order"),
    (["train", "--gen", "linear", "--lr", "-1", "--out", "m.json"], "--lr"),
    (["train", "--gen", "linear", "--test-fraction", "1.5",
      "--out", "m.json"], "--test-fraction"),
    (["train", "--gen", "linear", "--split-quantile", "x:2",
      "--out", "m.json"], "--split-quantile"),
    (["inspect-ode", "--model", "m.json", "--threshold", "nan"],
     "--threshold"),
    (["evaluate", "--model", "m.json", "--data", "d.csv",
      "--test-fraction", "0.5", "--split-quantile", "x:0.5"],
     "--split-quantile"),
    (["gen-data", "linear", "--seed", "-1", "--out", "d.csv"], "--seed"),
    (["train", "--gen", "linear", "--epochs", "0", "--out", "m.json"],
     "--epochs"),
    (["raise-order", "--model", "m.json", "--steps", "0", "--out", "r.json"],
     "--steps"),
    (["train", "--data", "d.csv", "--targets", "0", "--out", "m.json"],
     "--targets"),
    (["train", "--data", "d.csv", "--targets", " , ", "--out", "m.json"],
     "--targets"),
])
def test_a_malformed_flag_value_is_a_usage_error_naming_the_flag(
        argv, flag, capsys):
    # the first two used to exit 1 with Python's conversion message only;
    # a value that breaks the library's rule for the argument fails here,
    # before any file is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_train_without_a_data_source_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", "m.json"])
    assert exc.value.code == 2
    assert "one of the arguments --data --gen is required" in (
        capsys.readouterr().err)


def test_train_lr_default_is_adamax_alpha():
    # the parser keeps the rate a literal, because parsing loads no numpy
    args = build_parser().parse_args(["train", "--gen", "linear",
                                      "--out", "m.json"])
    assert args.lr == TrainConfig().learning_rate == ALPHA


def test_raise_order_to_no_more_steps_names_the_flag(trained, tmp_path,
                                                     capsys):
    model_path, _ = trained
    out_path = tmp_path / "raised.json"
    assert run("raise-order", "--model", model_path, "--steps", 3,
               "--out", out_path) == 1
    assert capsys.readouterr().err == (
        "error: --steps must be an int >= 4, got 3\n")
    assert not out_path.exists()


def test_raise_order_next_to_the_float_maximum_is_quiet(tmp_path, capsys):
    # a weight of max / 5 at 5 steps is the ODE coefficient max; at 7 steps
    # the rebuild used to warn "overflow encountered in multiply" twice
    model = TmpnnModel.create(1, 1, order=1, steps=5, standardize=False)
    model.map.delta[1, 1] = np.finfo(float).max / 5
    model_path, out_path = tmp_path / "m.json", tmp_path / "raised.json"
    save_model(model, model_path)
    assert run("raise-order", "--model", model_path, "--steps", 7,
               "--out", out_path) == 0
    assert capsys.readouterr().err == ""
    raised, _ = load_model(out_path)
    # no double times 7 is the maximum; the one below it is the nearest
    assert 7 * raised.map.delta[1, 1] == np.nextafter(np.finfo(float).max, 0)


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "tmpnn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout


# explicit ids: each case keeps its name when its message is reworded
@pytest.mark.parametrize("key,value,fragment", [
    ("n_features", None, "missing 'n_features'"),
    pytest.param("steps", [1], "'steps' must be an int >= 1",
                 id="steps-value1-'steps' must be an integer"),
    pytest.param("steps", 2.7, "'steps' must be an int >= 1",
                 id="steps-2.7-'steps' must be an integer"),
    pytest.param("steps", True, "'steps' must be an int >= 1",
                 id="steps-True-'steps' must be an integer"),
    ("scaler", "x", "'scaler' must be null or an object"),
    ("scaler", None, "missing 'scaler'"),
    # Python's JSON reader takes NaN and Infinity; the file must not
    pytest.param("init_state", [float("nan")],
                 "'init_state' holds the non-finite value nan",
                 id="init_state-value6-'init_state' must hold finite numbers"),
    pytest.param("scaler.mean", [float("nan")],
                 "'scaler.mean' holds the non-finite value nan",
                 id="scaler.mean-value7-'scaler.mean' must hold finite "
                    "numbers"),
    pytest.param("scaler.scale", [float("inf")],
                 "'scaler.scale' holds the non-finite value inf",
                 id="scaler.scale-value8-'scaler.scale' must hold finite "
                    "numbers"),
    pytest.param("reg_l2", float("nan"), "'reg_l2' must be finite",
                 id="reg_l2-nan-'reg_l2' must hold finite numbers"),
    ("init_state", {"a": 1}, "'init_state' must hold numbers only"),
    pytest.param("reg_l1", [1], "'reg_l1' must be finite",
                 id="reg_l1-value11-'reg_l1' must be a number"),
    ("feature_names", ["x", "x"],
     "'feature_names' must be null or a list of 1 distinct strings"),
])
def test_malformed_model_file_is_one_error_line(tmp_path, trained, capsys,
                                                key, value, fragment):
    model_path, data_csv = trained
    doc = json.loads(model_path.read_text())
    *outer, key = key.split(".")
    target = doc[outer[0]] if outer else doc
    if value is None:
        del target[key]
    else:
        target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("predict", "--model", bad, "--data", data_csv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert fragment in lines[0] and "Traceback" not in captured.err
