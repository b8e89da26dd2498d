"""Datasets: generators, CSV ingestion, splits, and regression metrics."""

from __future__ import annotations

import collections
import itertools
import numbers
import sys
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from .errors import _check_finite, _check_int, _check_real


@dataclass
class Dataset:
    """A feature matrix X (N x n), target matrix Y (N x m), and column names."""

    X: np.ndarray
    Y: np.ndarray
    feature_names: list[str]
    target_names: list[str]

    def __post_init__(self):
        self.X = _check_finite("X", np.atleast_2d(self.X), (None, None))
        if self.X.shape[0] < 1:
            raise ValueError("dataset is empty")
        Y = np.asarray(self.Y)
        self.Y = _check_finite("Y", Y[:, None] if Y.ndim == 1 else Y,
                               (self.X.shape[0], None))
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("feature_names length does not match X width")
        if len(self.target_names) != self.Y.shape[1]:
            raise ValueError("target_names length does not match Y width")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_targets(self) -> int:
        return self.Y.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset by index array."""
        return Dataset(self.X[idx], self.Y[idx],
                       list(self.feature_names), list(self.target_names))


def gen_friedman1(n_samples: int, n_unimportant: int = 0,
                  noise_std: float = 0.0, seed: int = 0) -> Dataset:
    """The Friedman-1 synthetic regression problem.

    Features are uniform on [0, 1]; the first five drive the target

        y = 10 sin(pi x1 x2) + 20 (x3 - 0.5)^2 + 10 x4 + 5 x5 + noise_std * e

    with e standard normal, and any additional features are irrelevant
    uniform noise columns.

    Args:
        n_samples: number of rows, >= 1.
        n_unimportant: extra U(0, 1) feature columns appended after the
            five informative ones.
        noise_std: standard deviation of the additive Gaussian noise.
        seed: RNG seed; equal seeds give bit-identical datasets.
    """
    _check_int("n_samples", n_samples, 1)
    _check_int("n_unimportant", n_unimportant, 0)
    _check_real("noise_std", noise_std, 0)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n_samples, 5 + n_unimportant))
    y = (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
         + 20.0 * (X[:, 2] - 0.5) ** 2
         + 10.0 * X[:, 3] + 5.0 * X[:, 4])
    if noise_std > 0:
        y = y + noise_std * rng.standard_normal(n_samples)
    names = [f"x{i + 1}" for i in range(X.shape[1])]
    return Dataset(X, y[:, None], names, ["y"])


def gen_noisy_linear(n_samples: int, x_range: tuple[float, float] = (-1.0, 1.0),
                     seed: int = 0) -> Dataset:
    """One uniform feature with y = x + U(-0.25, 0.25) noise."""
    _check_int("n_samples", n_samples, 1)
    lo, hi = x_range
    _check_real("x_range lo", lo)
    _check_real("x_range hi", hi, lo, strict=True)
    _check_real("x_range width hi - lo", float(hi) - float(lo))
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=n_samples)
    y = x + rng.uniform(-0.25, 0.25, size=n_samples)
    return Dataset(x[:, None], y[:, None], ["x"], ["y"])


def _detect_delimiter(line: str) -> str | None:
    """Pick the delimiter: semicolon, comma, or whitespace (None)."""
    if ";" in line:
        return ";"
    if "," in line:
        return ","
    return None


def _split_line(line: str, delim: str | None) -> list[str]:
    if delim is None:
        return line.split()
    return [cell.strip() for cell in line.split(delim)]


def _is_header(cells: list[str]) -> bool:
    """The header rule: a line is a header when any cell is not a number."""
    try:
        [float(c) for c in cells]
        return False
    except ValueError:
        return True


class _Table(tuple):
    """load_table's (names, values) pair; `headed` tells whether the names
    came from a header, which names c1, c2, ... alone do not tell."""
    headed: bool


# Rows parsed, or formatted, as one block: enough that the per-block
# calls cost nothing next to the per-row work, few enough that a block's
# lines stay small next to the values (numpy's reader makes no cell strings).
_BLOCK_ROWS = 1024


def load_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric table with auto-detected delimiter and optional header.

    The delimiter is semicolon, comma, or whitespace, whichever the first
    line uses.  A first row with non-numeric cells becomes the column
    names, which must be distinct; otherwise columns are named c1, c2, ...
    Blank lines are skipped and cells may be padded with blanks.  The
    lines are read a block at a time, so beyond the result only one
    block's text is held, and each block is parsed by numpy's C reader,
    which rounds as float() does.  A block it refuses is read cell by cell
    with float(), which also reads the spellings numpy does not (1_000,
    non-ASCII digits).

    Returns:
        (names, values) with values of shape (rows, columns); the pair's
        `headed` attribute tells whether the first line was a header.

    Raises:
        ValueError: a repeated name, empty table, ragged row, missing
            value, non-numeric cell, or a nan or infinite value (with the
            1-based data row, counted without the header and blank lines,
            and the column).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, map(str.strip, fh))
        head = next(lines, None)
        if head is None:
            raise ValueError(f"{path}: file contains no data")
        delim = _detect_delimiter(head)
        first = _split_line(head, delim)
        headed = _is_header(first)
        if headed:
            names = first
            _columns(names, names, f"{path}: column")
        else:
            names = [f"c{i + 1}" for i in range(len(first))]
            lines = itertools.chain([head], lines)
        blocks = []
        n_rows = 0
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            try:
                # comments=None: a "#" is a bad cell, not a comment
                out = np.loadtxt(block, delimiter=delim, comments=None, ndmin=2)
            except ValueError:
                out = None
            if out is None or out.shape != (len(block), len(names)):
                out = _parse_block_by_cell(path, block, delim, names, n_rows)
            blocks.append(out)
            n_rows += len(block)
    if not blocks:
        raise ValueError(f"{path}: no data rows after the header")
    rows = np.concatenate(blocks)
    # float() accepts "nan" and "inf"
    if not np.isfinite(rows).all():
        r, c = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(f"{path}: non-finite value {rows[r, c]} at "
                         f"row {r + 1}, column {names[c]!r}")
    table = _Table((names, rows))
    table.headed = headed
    return table


def _parse_block_by_cell(path, block: list[str], delim: str | None,
                         names: list[str], start: int) -> np.ndarray:
    """Parse a block cell by cell with float(), raising at its first bad
    row or cell with the position counted from the first data row of the
    file."""
    width = len(names)
    out = np.empty((len(block), width))
    for i, line in enumerate(block):
        r = start + i + 1
        cells = _split_line(line, delim)
        if len(cells) != width:
            raise ValueError(f"{path}: row {r} has {len(cells)} cells, "
                             f"expected {width}")
        for c, cell in enumerate(cells):
            if cell == "":
                raise ValueError(f"{path}: missing value at row {r}, "
                                 f"column {names[c]!r}")
            try:
                out[i, c] = float(cell)
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell {cell!r} at "
                                 f"row {r}, column {names[c]!r}") from None
    return out


def _columns(names: list[str], wanted: list[str], what: str) -> list[int]:
    """The index in names of each wanted name; a ValueError about the
    first wanted name (a `what`) that names lacks or wanted repeats."""
    index = {name: i for i, name in reversed(list(enumerate(names)))}
    found = [index.get(n) if isinstance(n, Hashable) else None for n in wanted]
    counts = collections.Counter(found)
    for name, i in zip(wanted, found):
        if i is None:
            raise ValueError(f"unknown {what} {name!r}; available: "
                             f"{', '.join(names)}")
        if counts[i] > 1:
            raise ValueError(f"{what} {name!r} is named twice")
    return found


def load_csv(path, target_columns) -> Dataset:
    """Load a numeric table, designating some columns as targets.

    Parsing as load_table, so column names are distinct.  Column order is
    preserved: target columns become Y, the rest X.

    Args:
        path: file to read.
        target_columns: a column name, a list of them, or a count n >= 1
            (an int or a numpy integer) meaning "the last n columns".

    Raises:
        ValueError: parse errors as load_table, a target count (of either
            form) outside [1, columns - 1], or a target name given twice
            or unknown (the error lists the names).
    """
    return _with_targets(*load_table(path), target_columns)


def _with_targets(names: list[str], rows: np.ndarray,
                  target_columns) -> Dataset:
    """load_csv's Dataset of a table already read."""
    width = len(names)
    if isinstance(target_columns, (numbers.Number, np.bool_)):
        _check_int("target_columns", target_columns, 1)
        count, target_names = target_columns, names[-target_columns:]
    else:
        target_names = ([target_columns] if isinstance(target_columns, str)
                        else list(target_columns))
        count = len(target_names)
    t_idx = _columns(names, target_names, "target column")
    if not 1 <= count < width:
        raise ValueError(f"target count {count} must be in [1, {width - 1}] "
                         f"for a table of {width} columns")
    f_idx = [i for i in range(width) if i not in t_idx]
    return Dataset(rows[:, f_idx], rows[:, t_idx],
                   [names[i] for i in f_idx], target_names)


def csv_text_blocks(names: list[str], values: np.ndarray):
    """Yield the comma-separated text of a table: the header line, then
    the rows one block at a time, each row a newline-terminated line of
    floats in shortest round-trip form."""
    yield ",".join(names) + "\n"
    width = values.shape[1]
    for start in range(0, values.shape[0], _BLOCK_ROWS):
        cells = map(repr, values[start:start + _BLOCK_ROWS].ravel().tolist())
        lines = cells if width == 1 else map(",".join, zip(*[cells] * width))
        yield "\n".join(lines) + "\n"


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as a comma-separated file with a header row.

    Floats are written in shortest round-trip form, so a save/load cycle
    reproduces values exactly.
    """
    names = list(dataset.feature_names) + list(dataset.target_names)
    _write_text(path, csv_text_blocks(names, np.hstack([dataset.X, dataset.Y])))


def _write_text(path, chunks) -> None:
    """Write text chunks to the file path, as UTF-8 with "\n" line ends, or
    to stdout, in its own text mode, when path is None."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def split_random(dataset: Dataset, test_fraction: float,
                 seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive random train/test split; each side gets at
    least one row, so the dataset needs two (a ValueError otherwise)."""
    _check_real("test_fraction", test_fraction, 0, 1, strict=True)
    _check_int("seed", seed, 0)
    n = dataset.n_samples
    if n < 2:
        raise ValueError(f"a random split needs at least 2 rows, the "
                         f"dataset has {n}")
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.take(np.sort(perm[n_test:])), dataset.take(np.sort(perm[:n_test]))


def split_quantile(dataset: Dataset, column: str,
                   quantile: float) -> tuple[Dataset, Dataset]:
    """Extrapolation split: test rows lie strictly above a column quantile.

    The column may be a feature or a target, so out-of-distribution tests
    can be run against either side of the mapping.
    """
    _check_real("quantile", quantile, 0, 1, strict=True)
    [j] = _columns(list(dataset.feature_names) + list(dataset.target_names),
                   [column], "column")
    n = dataset.n_features
    values = dataset.X[:, j] if j < n else dataset.Y[:, j - n]
    threshold = np.quantile(values, quantile)
    test_mask = values > threshold
    if test_mask.all() or not test_mask.any():
        raise ValueError(f"quantile split on {column!r} left one side empty")
    idx = np.arange(dataset.n_samples)
    return dataset.take(idx[~test_mask]), dataset.take(idx[test_mask])


def metric_mse(y_true, y_pred) -> float:
    """Mean squared error over every target entry; inf if it overflows."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    with np.errstate(over="ignore"):  # an overflowed error is inf
        return float(np.mean((y_true - y_pred) ** 2))


def metric_r2(y_true, y_pred) -> float:
    """Coefficient of determination, averaged uniformly over targets.

    Each target column gets its own 1 - SS_res/SS_tot score; the result is
    their plain mean.  A constant true column makes the score undefined.
    A sum that overflows is inf, and the score follows from it without a
    warning: -inf for SS_res alone, nan when both overflow.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.ndim == 1:
        y_true = y_true[:, None]
    if y_pred.ndim == 1:
        y_pred = y_pred[:, None]
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = np.sum((y_true - y_true.mean(axis=0)) ** 2, axis=0)
        if np.any(ss_tot == 0.0):
            raise ValueError("R^2 is undefined for a constant true target "
                             "column")
        ss_res = np.sum((y_true - y_pred) ** 2, axis=0)
        return float(np.mean(1.0 - ss_res / ss_tot))
