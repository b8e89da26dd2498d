"""Dataset container, generators, table loading, splits, and metrics."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import tmpnn.data
from tmpnn.data import (_BLOCK_ROWS, Dataset, gen_friedman1, gen_noisy_linear,
                        load_csv, load_table, metric_mse, metric_r2, save_csv,
                        split_quantile, split_random)


def test_dataset_promotes_1d_targets_and_counts():
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]),
                 ["a", "b"], ["y"])
    assert ds.Y.shape == (3, 1)
    assert (ds.n_samples, ds.n_features, ds.n_targets) == (3, 2, 1)


def test_dataset_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Dataset(X, np.zeros((4, 1)), ["a", "b"], ["y"])
    with pytest.raises(ValueError):
        Dataset(X, np.array([1.0, np.nan, 3.0]), ["a", "b"], ["y"])
    with pytest.raises(ValueError):
        Dataset(X, np.zeros(3), ["a"], ["y"])
    with pytest.raises(ValueError):
        Dataset(X, np.zeros(3), ["a", "b"], [])
    with pytest.raises(ValueError, match="dataset is empty"):
        Dataset(np.zeros((0, 2)), np.zeros((0, 1)), ["a", "b"], ["y"])


def test_take_subsets_rows():
    ds = gen_friedman1(10, seed=0)
    sub = ds.take(np.array([2, 5]))
    np.testing.assert_array_equal(sub.X, ds.X[[2, 5]])
    np.testing.assert_array_equal(sub.Y, ds.Y[[2, 5]])
    assert sub.feature_names == ds.feature_names


def test_friedman_formula_matches_features():
    ds = gen_friedman1(50, seed=3)
    x = ds.X
    expected = (10 * np.sin(np.pi * x[:, 0] * x[:, 1])
                + 20 * (x[:, 2] - 0.5) ** 2 + 10 * x[:, 3] + 5 * x[:, 4])
    np.testing.assert_allclose(ds.Y[:, 0], expected, rtol=1e-15)
    assert ds.feature_names == [f"x{i}" for i in range(1, 6)]
    assert np.all((x >= 0) & (x <= 1))


def test_friedman_unimportant_columns_do_not_enter_target():
    narrow = gen_friedman1(40, seed=7)
    wide = gen_friedman1(40, n_unimportant=5, seed=7)
    assert wide.n_features == 10
    x = wide.X
    expected = (10 * np.sin(np.pi * x[:, 0] * x[:, 1])
                + 20 * (x[:, 2] - 0.5) ** 2 + 10 * x[:, 3] + 5 * x[:, 4])
    np.testing.assert_allclose(wide.Y[:, 0], expected, rtol=1e-15)
    # same seed, but widths differ, so draws need not line up; only the
    # functional relation is shared
    assert narrow.n_features == 5


def test_friedman_noise_and_seeding():
    a = gen_friedman1(30, noise_std=0.5, seed=11)
    b = gen_friedman1(30, noise_std=0.5, seed=11)
    c = gen_friedman1(30, noise_std=0.5, seed=12)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert not np.array_equal(a.Y, c.Y)
    clean = gen_friedman1(30, seed=11)
    np.testing.assert_array_equal(a.X, clean.X)
    assert not np.array_equal(a.Y, clean.Y)


def test_noisy_linear_bounds():
    ds = gen_noisy_linear(500, seed=1)
    assert np.all(np.abs(ds.X) <= 1.0)
    resid = ds.Y[:, 0] - ds.X[:, 0]
    assert np.all(np.abs(resid) <= 0.25)
    assert resid.std() > 0.1
    wide = gen_noisy_linear(100, x_range=(2.0, 5.0), seed=1)
    assert wide.X.min() >= 2.0 and wide.X.max() <= 5.0
    with pytest.raises(ValueError):
        gen_noisy_linear(10, x_range=(1.0, 1.0))


@pytest.mark.parametrize("text,names", [
    ("a,b,y\n1,2,3\n4,5,6\n", ["a", "b", "y"]),
    ("a;b;y\n1;2;3\n4;5;6\n", ["a", "b", "y"]),
    ("a b y\n1 2 3\n4 5 6\n", ["a", "b", "y"]),
    ("1,2,3\n4,5,6\n", ["c1", "c2", "c3"]),
])
def test_load_table_delimiters_and_headers(tmp_path, text, names):
    path = tmp_path / "t.csv"
    path.write_text(text)
    got_names, rows = load_table(path)
    assert got_names == names
    np.testing.assert_array_equal(rows, [[1, 2, 3], [4, 5, 6]])


def test_load_table_tolerates_blank_lines_and_padding(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("  800 0.3 71.3  \n\n 1000 0.3 71.0 \n")
    names, rows = load_table(path)
    assert names == ["c1", "c2", "c3"]
    assert rows.shape == (2, 3)


@pytest.mark.parametrize("text,fragment", [
    ("", "no data"),
    ("a,b\n", "no data rows"),
    ("a,b\n1,2\n3\n", "row 2"),
    ("a,b\n1,2\n3,oops\n", "'oops'"),
    ("a,b\n1,\n", "missing value"),
    ("a,b\n1,2\n3,nan\n", "non-finite value nan at row 2, column 'b'"),
    ("1 inf\n2 3\n", "non-finite value inf at row 1, column 'c2'"),
    ("a;b\n-Infinity;2\n", "non-finite value -inf at row 1, column 'a'"),
])
def test_load_table_errors_carry_positions(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        load_table(path)


# rows of a file longer than two parse blocks, the last block partial
LONG_ROWS = 2 * _BLOCK_ROWS + 37


def _long_table(tmp_path, delim=",", bad_row=None, bad_line=""):
    """A header plus LONG_ROWS data rows of 3 cells, with a blank line
    after every 1000th; the 1-based data row bad_row is bad_line."""
    rows = np.random.default_rng(3).normal(size=(LONG_ROWS, 3))
    lines = [delim.join(["a", "b", "c"])]
    for r, row in enumerate(rows.tolist(), start=1):
        lines.append(bad_line if r == bad_row
                     else delim.join(map(repr, row)))
        if r % 1000 == 0:
            lines.append("")
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, rows


@pytest.mark.parametrize("delim", [",", ";", " "])
def test_load_table_reads_many_blocks_exactly(tmp_path, delim):
    path, rows = _long_table(tmp_path, delim)
    names, got = load_table(path)
    assert names == ["a", "b", "c"]
    assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("bad_line,message", [
    ("1.0,2.0", "row {r} has 2 cells, expected 3"),
    ("1.0,,2.0", "missing value at row {r}, column 'b'"),
    ("1.0,2.0,x7", "non-numeric cell 'x7' at row {r}, column 'c'"),
    ("1.0,nan,2.0", "non-finite value nan at row {r}, column 'b'"),
])
def test_load_table_errors_in_the_last_block_name_the_file_row(
        tmp_path, bad_line, message):
    # the bad row sits in the last block, behind two clean ones
    bad_row = LONG_ROWS - 5
    path, _ = _long_table(tmp_path, bad_row=bad_row, bad_line=bad_line)
    with pytest.raises(ValueError) as err:
        load_table(path)
    assert str(err.value) == f"{path}: " + message.format(r=bad_row)


@pytest.mark.parametrize("delim", [",", ";", " "])
def test_numpy_reads_every_clean_block(tmp_path, delim):
    path, rows = _long_table(tmp_path, delim)
    with mock.patch.object(tmpnn.data, "_parse_block_by_cell",
                           side_effect=AssertionError("read cell by cell")):
        _, got = load_table(path)
    assert got.tobytes() == rows.tobytes()


def test_only_a_block_numpy_refuses_is_read_cell_by_cell(tmp_path):
    # numpy does not read "1_000", float() does: the middle block of three
    bad_row = _BLOCK_ROWS + 10
    path, rows = _long_table(tmp_path, bad_row=bad_row,
                             bad_line="1_000,2.5,-0.0")
    by_cell = tmpnn.data._parse_block_by_cell
    with mock.patch.object(tmpnn.data, "_parse_block_by_cell",
                           wraps=by_cell) as spy:
        _, got = load_table(path)
    assert [call.args[-1] for call in spy.call_args_list] == [_BLOCK_ROWS]
    rows[bad_row - 1] = [1000.0, 2.5, -0.0]
    assert got.tobytes() == rows.tobytes()


def test_load_table_holds_one_block_of_text_at_a_time(tmp_path):
    # 50k rows: 4.6 MiB of text, 1.9 MiB of values.  Beyond the values
    # and the blocks they are joined from, only a block's lines and cells
    # may be alive; a reader that keeps every line peaks near 9.8 MiB
    rows = np.random.default_rng(5).uniform(size=(50_000, 5))
    path = tmp_path / "big.csv"
    path.write_text("a,b,c,d,e\n" + "\n".join(
        ",".join(map(repr, row)) for row in rows.tolist()) + "\n")
    tracemalloc.start()
    try:
        _, got = load_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == rows.tobytes()
    assert peak < 2 * got.nbytes + 2 * 2 ** 20


def test_load_csv_trailing_count_and_named_targets(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y1,y2\n1,2,3,4\n5,6,7,8\n")
    ds = load_csv(path, 2)
    assert ds.feature_names == ["a", "b"]
    assert ds.target_names == ["y1", "y2"]
    np.testing.assert_array_equal(ds.X, [[1, 2], [5, 6]])
    np.testing.assert_array_equal(ds.Y, [[3, 4], [7, 8]])

    mid = load_csv(path, ["b"])
    assert mid.feature_names == ["a", "y1", "y2"]
    np.testing.assert_array_equal(mid.Y, [[2], [6]])

    with pytest.raises(ValueError, match="available"):
        load_csv(path, ["nope"])
    # a name given twice used to make a Y of two equal columns
    with pytest.raises(ValueError, match="target column 'y1' is named twice"):
        load_csv(path, ["y1", "a", "y1"])
    with pytest.raises(ValueError):
        load_csv(path, 4)
    with pytest.raises(ValueError):
        load_csv(path, 0)
    # the name form used to give a Y, or an X, of no columns
    for targets, count in (([], 0), (["a", "b", "y1", "y2"], 4)):
        with pytest.raises(ValueError, match=(
                rf"target count {count} must be in \[1, 3\] for a table "
                rf"of 4 columns")):
            load_csv(path, targets)


def test_load_csv_takes_one_target_name(tmp_path):
    # a name used to be split into its characters: unknown column 'x'
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,y\n1,2,3\n4,5,6\n")
    ds = load_csv(path, "x1")
    assert ds.feature_names == ["x2", "y"]
    assert ds.target_names == ["x1"]
    np.testing.assert_array_equal(ds.Y, [[1], [4]])


def test_load_csv_takes_a_numpy_integer_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    ds = load_csv(path, np.int64(1))
    assert ds.target_names == ["y"]
    np.testing.assert_array_equal(ds.X, [[1, 2], [4, 5]])


@pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
def test_load_csv_rejects_a_bool_count(tmp_path, flag):
    # True used to pick the last column, as the count 1, and np.True_ to
    # be a TypeError
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="^target_columns must be an int "
                                         f">= 1, got {flag!r}$"):
        load_csv(path, flag)


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((20, 3)) * 1e3,
                 rng.standard_normal((20, 2)) * 1e-7,
                 ["f1", "f2", "f3"], ["t1", "t2"])
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path, ["t1", "t2"])
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.Y, ds.Y)
    assert back.feature_names == ds.feature_names
    # the same text tmpnn predict writes: \n line ends, repr floats
    rows = np.hstack([ds.X, ds.Y]).tolist()
    assert path.read_bytes() == "".join(
        line + "\n" for line in ["f1,f2,f3,t1,t2"]
        + [",".join(map(repr, row)) for row in rows]).encode()


def test_split_random_is_disjoint_exhaustive_seeded():
    ds = gen_friedman1(100, seed=0)
    train, test = split_random(ds, 0.25, seed=5)
    assert (train.n_samples, test.n_samples) == (75, 25)
    merged = np.vstack([train.X, test.X])
    assert merged.shape == ds.X.shape
    # every original row appears exactly once across the two halves
    orig = {tuple(r) for r in ds.X}
    assert {tuple(r) for r in merged} == orig

    again_train, again_test = split_random(ds, 0.25, seed=5)
    np.testing.assert_array_equal(again_test.X, test.X)
    other = split_random(ds, 0.25, seed=6)[1]
    assert not np.array_equal(other.X, test.X)


def test_split_random_clamps_tiny_sides():
    ds = gen_friedman1(4, seed=0)
    train, test = split_random(ds, 0.01)
    assert test.n_samples == 1 and train.n_samples == 3
    train, test = split_random(ds, 0.99)
    assert train.n_samples == 1 and test.n_samples == 3
    with pytest.raises(ValueError):
        split_random(ds, 0.0)
    with pytest.raises(ValueError):
        split_random(ds, 1.0)
    # one row cannot give both sides a row: the error names the count
    with pytest.raises(ValueError, match="at least 2 rows.* has 1"):
        split_random(gen_friedman1(1, seed=0), 0.5)


def test_split_quantile_on_feature_and_target():
    X = np.arange(20.0)[:, None]
    ds = Dataset(X, 2.0 * X, ["x"], ["y"])
    train, test = split_quantile(ds, "x", 0.75)
    threshold = np.quantile(ds.X[:, 0], 0.75)
    assert np.all(test.X[:, 0] > threshold)
    assert np.all(train.X[:, 0] <= threshold)
    assert train.n_samples + test.n_samples == 20

    _, test_y = split_quantile(ds, "y", 0.5)
    assert np.all(test_y.Y[:, 0] > np.quantile(ds.Y[:, 0], 0.5))

    with pytest.raises(ValueError, match="available"):
        split_quantile(ds, "z", 0.5)
    with pytest.raises(ValueError):
        split_quantile(ds, "x", 1.0)
    flat = Dataset(np.ones((5, 1)), np.arange(5.0), ["x"], ["y"])
    with pytest.raises(ValueError, match="empty"):
        split_quantile(flat, "x", 0.5)


def test_metric_mse():
    assert metric_mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_mse([0.0, 0.0], [1.0, 3.0]) == 5.0
    # multi-target mean runs over every entry
    assert metric_mse([[0.0, 0.0]], [[3.0, 4.0]]) == 12.5
    # an error that overflows is inf, without a RuntimeWarning (an error
    # under pyproject.toml's filter)
    assert metric_mse([0.0, 1.0], [1e200, 0.0]) == np.inf
    with pytest.raises(ValueError):
        metric_mse([1.0], [1.0, 2.0])


def test_metric_r2():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert metric_r2(y, y) == 1.0
    assert abs(metric_r2(y, np.full(4, y.mean()))) < 1e-15
    # a column predicted at the mean contributes 0, a perfect one 1
    y2 = np.stack([y, y], axis=1)
    pred = np.stack([y, np.full(4, y.mean())], axis=1)
    assert abs(metric_r2(y2, pred) - 0.5) < 1e-15
    assert metric_r2(y, y[::-1]) < 1.0
    assert metric_r2([0.0, 1.0], [1e200, 0.0]) == -np.inf  # no warning
    # a true column whose spread overflows: SS_tot is inf, and the score
    # follows from it, with no warning (it used to warn twice)
    assert np.isnan(metric_r2([1e200, 0.0], [-1e200, 1.0]))
    assert metric_r2([1e200, 0.0], [1e200, 0.0]) == 1.0
    with pytest.raises(ValueError, match="constant"):
        metric_r2(np.ones(4), y)
    with pytest.raises(ValueError):
        metric_r2(y, y[:3])


def test_r2_agrees_with_direct_formula():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((50, 3))
    pred = y + 0.1 * rng.standard_normal((50, 3))
    per_col = [1 - np.sum((y[:, j] - pred[:, j]) ** 2)
               / np.sum((y[:, j] - y[:, j].mean()) ** 2) for j in range(3)]
    assert abs(metric_r2(y, pred) - np.mean(per_col)) < 1e-14
