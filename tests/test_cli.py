"""End-to-end command-line flows, run in process through main()."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tmpnn import TmpnnModel, load_model, metric_r2, predict, save_model
from tmpnn.cli import main
from tmpnn.data import _BLOCK_ROWS, load_csv, load_table


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
    (["train", "--gen", "linear", "--data", "x.csv", "--targets", "y",
      "--out", "m.json"], "mutually exclusive"),
    (["train", "--out", "m.json"], "one of --data or --gen"),
    (["train", "--data", "missing.csv", "--out", "m.json"],
     "--targets is required"),
    (["train", "--gen", "linear", "--test-fraction", "0.2",
      "--split-quantile", "x:0.5", "--out", "m.json"], "mutually exclusive"),
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


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "tmpnn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout


@pytest.mark.parametrize("key,value,fragment", [
    ("n_features", None, "missing 'n_features'"),
    ("steps", [1], "'steps' must be an integer"),
    ("steps", 2.7, "'steps' must be an integer"),
    ("steps", True, "'steps' must be an integer"),
    ("scaler", "x", "'scaler' must be null or an object"),
])
def test_malformed_model_file_is_one_error_line(tmp_path, trained, capsys,
                                                key, value, fragment):
    model_path, data_csv = trained
    doc = json.loads(model_path.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("predict", "--model", bad, "--data", data_csv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert fragment in lines[0] and "Traceback" not in captured.err
