"""Property tests of the exact round trips: JSON save/load, ODE
extract/rebuild and raise-order at step doublings over random model
shapes, CSV save/load over random tables, and table parsing against a
per-cell float() reference; of the CLI's column matching by header
against in-process predict; of the divergence errors of the forward
passes against a plain loop; of the model-file boundary under mutated
documents; and of the one rule for numeric and array arguments."""

import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

import tmpnn.data
import tmpnn.model
from tmpnn import (AdamaxState, Dataset, DivergenceError, OdeSystem, Scaler,
                   TaylorMapWeights, TmpnnModel, TrainConfig, adamax_step,
                   build_basis, extract_ode, forward, gen_friedman1,
                   gen_noisy_linear, identity_weights, integrate_reference,
                   load_csv, load_model, load_table, loss_and_gradient,
                   model_from_dict, model_to_dict, predict, raise_order,
                   rebuild_map, render_ode, rescale_time, save_csv,
                   save_model, split_quantile, split_random)
from tmpnn.basis import eval_monomials_batch
from tmpnn.cli import main

# (n, m, l, k, p) with the weights, init state and scaler drawn from a seed
shapes = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
                   st.integers(1, 3), st.integers(1, 6),
                   st.integers(0, 2 ** 32 - 1))

bounded = settings(max_examples=40, deadline=None)


def random_model(n, m, l, k, p, seed):
    rng = np.random.default_rng(seed)
    model = TmpnnModel.create(n, m, n_latent=l, order=k, steps=p,
                              init_trainable=bool(rng.integers(0, 2)),
                              reg_l2=float(rng.choice([0.0, 1e-4])))
    model.map.delta = rng.normal(0.0, 0.1, model.map.delta.shape)
    model.init_state = rng.normal(0.0, 0.3, model.init_state.shape)
    model.scaler = Scaler(mean=rng.normal(size=n),
                          scale=rng.uniform(0.5, 2.0, size=n))
    return model, rng


def outcome(model, X):
    """The bytes of predict(model, X), or, when a random model's forward
    pass overflows, the step, row and state bytes of its DivergenceError;
    equal outcomes are the same predictions or the same failure."""
    try:
        return predict(model, X).tobytes()
    except DivergenceError as err:
        return err.step, err.row, err.state.tobytes()


@bounded
@given(shapes)
def test_json_save_load_predicts_bit_identically(shape):
    model, rng = random_model(*shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        back, _ = load_model(path)
    assert back.order == model.order and back.steps == model.steps
    X = rng.uniform(-1.0, 1.0, size=(16, model.n_features))
    assert outcome(back, X) == outcome(model, X)


def _values(node, path=()):
    """(path, value) of every value below a JSON document, parents before
    their children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _values(value, path + (key,))


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list",
            dict: "object"}[type(value)]


# one value of each JSON type; a number changed into another number is a
# new value of the same type, not a malformed field
OF_TYPE = {"number": 7.5, "bool": True, "string": "x", "null": None,
           "list": [1.0], "object": {"a": 1.0}}
DIMENSIONS = ("n_features", "n_targets", "n_latent", "order", "steps")


def _sites(doc, kind):
    """(path, value) of every place in doc that a mutation of kind fits."""
    values = list(_values(doc))
    if kind == "drop":
        return [(path, v) for path, v in values if isinstance(path[-1], str)]
    if kind == "shape":
        return [(path, v) for path, v in values if isinstance(v, list)]
    if kind == "non-finite":
        return [(path, v) for path, v in values if _json_type(v) == "number"]
    if kind == "fraction":
        return [((key,), doc[key]) for key in DIMENSIONS]
    return values


def _changes(draw, kind, path, old):
    """The new values a mutation of kind puts at path (None: drop it)."""
    if kind == "drop":
        return [None]
    if kind == "type":
        # null is a legal scaler: it names a model without one, which is
        # another model, not a malformed file
        return [OF_TYPE[t] for t in OF_TYPE if t != _json_type(old)
                and not (path == ("scaler",) and t == "null")]
    if kind == "shape":
        return [draw(st.sampled_from([old[:-1], old + old[-1:], [old]]))]
    if kind == "non-finite":
        return [draw(st.sampled_from([np.nan, np.inf, -np.inf]))]
    return [old + draw(st.floats(0.01, 0.99))]


@settings(max_examples=25, deadline=None)
@given(shapes, st.data())
def test_mutated_model_file_loads_identically_or_is_a_value_error(shape,
                                                                   data):
    # every example mutates each top-level key in each of five ways: drop
    # a key, give a value another JSON type, make a list one entry
    # shorter or longer or wrap it in a list, put in NaN or an infinity,
    # make a dimension fractional; where inside the key, and the new
    # shape or number, are drawn
    model, rng = random_model(*shape)
    doc = model_to_dict(
        model, feature_names=[f"x{i}" for i in range(model.n_features)],
        target_names=[f"y{j}" for j in range(model.n_targets)],
        training={"epochs_run": 3, "losses": [0.5, 0.25]})
    # the text a file would hold; Python's reader takes NaN and Infinity,
    # the values put in below
    text = json.dumps(doc)
    X = rng.uniform(-1.0, 1.0, size=(8, model.n_features))
    want = outcome(model, X)
    for kind in ("drop", "type", "shape", "non-finite", "fraction"):
        sites = _sites(doc, kind)
        for top in sorted({path[0] for path, _ in sites}):
            here = [site for site in sites if site[0][0] == top]
            # the shallowest site half the time, so the top-level value
            # is not lost among the entries below it
            path, old = (here[0] if data.draw(st.booleans())
                         else data.draw(st.sampled_from(here)))
            for value in _changes(data.draw, kind, path, old):
                mutant = json.loads(text)
                parent = mutant
                for key in path[:-1]:
                    parent = parent[key]
                if kind == "drop":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                note(f"{kind} at {path}: {value!r}")
                try:
                    back, _ = model_from_dict(mutant)
                except ValueError:
                    continue
                assert outcome(back, X) == want


@bounded
@given(shapes)
def test_extract_rebuild_is_exact(shape):
    model, _ = random_model(*shape)
    ode = extract_ode(model)
    rebuilt = rebuild_map(ode, model.steps)
    np.testing.assert_array_equal(rebuilt.delta, model.map.delta)
    np.testing.assert_array_equal(rebuilt.W, model.map.W)


@bounded
@given(shapes, st.integers(1, 3))
def test_raise_order_at_doublings_keeps_the_ode(shape, doublings):
    model, _ = random_model(*shape)
    raised = raise_order(model, model.steps * 2 ** doublings)
    np.testing.assert_array_equal(extract_ode(raised).A, extract_ode(model).A)
    np.testing.assert_array_equal(raised.init_state, model.init_state)
    assert raised.order == model.order


@bounded
@given(st.integers(1, 3), st.integers(1, 3), st.integers(3, 10 ** 6),
       st.data())
def test_rebuild_recovers_every_rounded_multiple(dim, order, steps, data):
    # A = steps * delta has a preimage, so steps * rebuild.delta is A;
    # entries next to 2**e / steps make A a power of two, where the
    # product of the quotient A / steps can round off A
    basis = build_basis(dim, order)
    bound = np.finfo(float).max / steps
    near_power = st.builds(lambda e, to: np.nextafter(2.0 ** e / steps, to),
                           st.integers(-1000, 1000),
                           st.sampled_from([-np.inf, np.inf]))
    delta = np.array(data.draw(st.lists(st.floats(-bound, bound) | near_power,
                                        min_size=basis.size * dim,
                                        max_size=basis.size * dim)))
    with np.errstate(over="ignore"):
        A = (steps * delta).reshape(basis.size, dim)
    assume(np.isfinite(A).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rebuilt = rebuild_map(OdeSystem(basis=basis, A=A), steps)
    np.testing.assert_array_equal(steps * rebuilt.delta, A)


def plain_overflow(model, Z0):
    """(step, row, state bytes) where a plain loop over the rows Z0,
    checked after every map application, first goes non-finite; None
    when it stays finite."""
    Z = Z0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(model.steps):
            after = Z + eval_monomials_batch(model.basis, Z) @ model.map.delta
            bad = ~np.isfinite(after).all(axis=1)
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                return t + 1, row, Z[row].tobytes()
            Z = after
    return None


def raised_at(err):
    return err.step, err.row, err.state.tobytes()


@bounded
@given(st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
                 st.integers(1, 3), st.integers(3, 8),
                 st.integers(0, 2 ** 32 - 1)))
def test_a_diverged_pass_raises_the_error_of_a_checked_loop(shape):
    # a pass is checked once, at its end; a diverged one runs again into
    # its buffers, checked per step.  The weights are scaled so the first
    # overflow comes past step 2, after the pair of state buffers wrapped
    model, rng = random_model(*shape)
    N = 40
    X = rng.uniform(-1.0, 1.0, size=(N, model.n_features))
    Y = rng.normal(size=(N, model.n_targets))
    Z0 = model.initial_state(X)
    base = model.map.delta
    found = {}
    for e in range(0, 308, 4):
        model.map.delta = base * 10.0 ** e
        hit = plain_overflow(model, Z0)
        if hit is not None and hit[0] >= 3:
            found[e] = hit
    assume(found)
    e = sorted(found)[int(rng.integers(len(found)))]
    model.map.delta = base * 10.0 ** e
    note(f"weights scaled by 1e{e}")

    with pytest.raises(DivergenceError) as err:
        loss_and_gradient(model, Dataset(X, Y, list("abc")[:X.shape[1]],
                                         list("yz")[:Y.shape[1]]))
    assert raised_at(err.value) == found[e]

    _, row, _ = found[e]
    with pytest.raises(DivergenceError) as err:
        forward(model, X[row])
    assert raised_at(err.value) == plain_overflow(model, Z0[[row]])

    # three blocks of 13, 13 and 14 rows; the first to overflow is named
    with mock.patch.object(tmpnn.model, "_PHI_BLOCK_BYTES", 0):
        with pytest.raises(DivergenceError) as err:
            predict(model, X)
    bounds = [N * i // 3 for i in range(4)]
    for start, stop in zip(bounds, bounds[1:]):
        hit = plain_overflow(model, Z0[start:stop])
        if hit is not None:
            break
    step, row, state = hit
    assert raised_at(err.value) == (step, start + row, state)


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


# column names a CSV header can carry: no delimiter or blank, and not
# parseable as a number ("nan", "inf"), which would read as a data row
names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,7}", fullmatch=True).filter(
    lambda name: not _is_number(name))
# finite doubles over the whole range: negative, subnormal, huge, -0.0
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    rows = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    columns = draw(st.lists(names, min_size=n + m, max_size=n + m,
                            unique=True))
    values = np.array(draw(st.lists(finite, min_size=rows * (n + m),
                                    max_size=rows * (n + m))))
    values = values.reshape(rows, n + m)
    return Dataset(values[:, :n], values[:, n:], columns[:n], columns[n:])


@bounded
@given(tables())
def test_csv_save_load_is_bit_identical(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        save_csv(data, path)
        back = load_csv(path, data.n_targets)
    assert back.feature_names == data.feature_names
    assert back.target_names == data.target_names
    # compare bits, so -0.0 must come back as -0.0
    assert back.X.tobytes() == data.X.tobytes()
    assert back.Y.tobytes() == data.Y.tobytes()


# the spellings of a finite number that float() reads
number_texts = st.one_of(
    finite.map(repr), finite.map("{:.6e}".format), finite.map("{:g}".format),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(0, 10 ** 4).map("+{:_}".format),
    st.sampled_from(["-0", "-0.0", "+.5", "1.", "1E3", "2e-308", "5e-324"]),
    # mantissas of 17-25 digits, where a double holds at most 17
    st.builds("{}.{}e{}".format, st.integers(0, 9),
              st.integers(10 ** 15, 10 ** 24 - 1), st.integers(-320, 300)),
    # spellings numpy's C reader refuses and float() reads, so that a
    # table mixes blocks read by numpy with blocks read cell by cell
    st.sampled_from(["\u0663", "-\u0661\u0662.\u0665", "1_0", "1_000.000_1"]))
blanks = st.text(" \t", max_size=3)


@st.composite
def text_tables(draw, repeated=False):
    """(text, names, cells): the text of a table with a random delimiter,
    padding, blank lines, line ends and optional header, the names
    load_table must return and the cell texts of its data rows.  With
    repeated, the table has a header in which one name is drawn twice."""
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(2 if repeated else 1, 4))
    delim = draw(st.sampled_from([",", ";", None]))
    cells = [[draw(number_texts) for _ in range(width)] for _ in range(rows)]
    header = repeated or draw(st.booleans())
    columns = (draw(st.lists(names, min_size=width, max_size=width,
                             unique=True))
               if header else [f"c{i + 1}" for i in range(width)])
    if repeated:
        source, copy = draw(st.lists(st.integers(0, width - 1), min_size=2,
                                     max_size=2, unique=True))
        columns[copy] = columns[source]

    def line(items):
        if delim is None:
            seps = [draw(blanks) + draw(st.sampled_from(" \t"))
                    for _ in items[1:]]
        else:
            seps = [draw(blanks) + delim + draw(blanks) for _ in items[1:]]
        out = draw(blanks) + items[0]
        for sep, item in zip(seps, items[1:]):
            out += sep + item
        return out + draw(blanks)

    lines = ([line(columns)] if header else []) + [line(row) for row in cells]
    text = ""
    for ln in lines:
        text += "".join(draw(blanks) + "\n"
                        for _ in range(draw(st.integers(0, 1))))
        text += ln + draw(st.sampled_from(["\n", "\r\n"]))
    return text, columns, cells


@bounded
@given(text_tables(), st.integers(1, 5))
def test_load_table_matches_a_per_cell_float_reference(table, block_rows):
    text, names, cells = table
    want = np.array([[float(cell) for cell in row] for row in cells])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(text.encode("utf-8"))
        # small blocks, so that tables of a few rows span several
        with mock.patch.object(tmpnn.data, "_BLOCK_ROWS", block_rows):
            got_names, values = load_table(path)
    assert got_names == names
    assert values.shape == want.shape
    assert values.tobytes() == want.tobytes()


@bounded
@given(text_tables(repeated=True))
def test_load_table_rejects_a_header_that_names_a_column_twice(table):
    # a repeated name used to be read, and then looked up as its first
    # column wherever it was named
    text, names, _ = table
    twice = next(name for name in names if names.count(name) > 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as err:
            load_table(path)
    assert str(err.value) == f"{path}: column {twice!r} is named twice"


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_predict_reads_a_header_by_name_and_no_header_by_position(width,
                                                                  data):
    # a header that read c1,c2,... used to be taken for no header, so its
    # columns went to the model by position
    defaults = [f"c{i + 1}" for i in range(width)]
    recorded = data.draw(st.permutations(defaults), label="feature_names")
    header = data.draw(st.none() | st.permutations(defaults), label="header")
    model, rng = random_model(width, 1, 0, 2, 2, data.draw(
        st.integers(0, 2 ** 32 - 1), label="seed"))
    X = rng.uniform(-1.0, 1.0, size=(5, width))
    lines = [",".join(header)] if header else []
    lines += [",".join(map(repr, row)) for row in X.tolist()]
    order = ([header.index(name) for name in recorded] if header
             else list(range(width)))
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data_path, out_path = (Path(tmp) / name for name in
                                           ("m.json", "x.csv", "y.csv"))
        save_model(model, model_path, feature_names=recorded,
                   target_names=["y"])
        data_path.write_text("\n".join(lines) + "\n")
        assert main(["predict", "--model", str(model_path), "--data",
                     str(data_path), "--out", str(out_path)]) == 0
        _, got = load_table(out_path)
    assert got.tobytes() == predict(model, X[:, order]).tobytes()


NOT_FINITE = [math.nan, math.inf, -math.inf]


def count(name, call, least):
    """A row of the argument table for a count of at least least: the
    values it must reject, a strategy for more of them, and the value at
    its bound it must accept."""
    rejected = [True, np.True_, "3", None, *NOT_FINITE, 2.5, least - 1]
    return (name, call, rejected,
            st.integers(max_value=least - 1) | st.floats(), np.int64(least))


def real(name, call, least=None, most=None, strict=False, inside=None):
    """A row for a finite real within the bounds, excluded when strict;
    inside is the value it must accept, least by default."""
    # an int beyond float range is not finite either
    rejected = [True, np.True_, "3", None, *NOT_FINITE, 10 ** 400, -10 ** 400]
    drawn = []
    if least is not None:
        edge = least if strict else math.nextafter(least, -math.inf)
        rejected.append(edge)
        drawn.append(st.floats(max_value=edge))
    if most is not None:
        edge = most if strict else math.nextafter(most, math.inf)
        rejected.append(edge)
        drawn.append(st.floats(min_value=edge))
    return (name, call, rejected,
            st.one_of(st.sampled_from(NOT_FINITE), *drawn),
            np.float32(least if inside is None else inside))


_model = TmpnnModel.create(1, 1, order=2, steps=2)
_ode = extract_ode(_model)
_data = gen_friedman1(8)
_sizes = dict(n_features=1, n_targets=1, n_latent=0, steps=2)

# every public entry point's counts and reals, each called with one value
ARGUMENTS = [
    count("dim", lambda v: build_basis(v, 2), 1),
    count("order", lambda v: build_basis(2, v), 1),
    *[count(name, lambda v, name=name: TmpnnModel.create(**{**_sizes,
                                                          name: v}), least)
      for name, least in (("n_features", 1), ("n_targets", 1),
                          ("n_latent", 0), ("steps", 1))],
    count("order", lambda v: TmpnnModel.create(1, 1, order=v), 1),
    count("seed", lambda v: TmpnnModel.create(1, 1, seed=v), 0),
    count("epochs", lambda v: TrainConfig(epochs=v), 1),
    count("batch_size", lambda v: TrainConfig(batch_size=v), 1),
    count("shuffle_seed", lambda v: TrainConfig(shuffle_seed=v), 0),
    count("early_stop", lambda v: TrainConfig(early_stop=(v, 0.0)), 1),
    count("steps", lambda v: rebuild_map(_ode, v), 1),
    count("new_steps", lambda v: raise_order(_model, v), 3),
    count("n_steps", lambda v: integrate_reference(_ode, [0.5, 0.5], v), 1),
    count("n_samples", lambda v: gen_friedman1(v), 1),
    count("n_unimportant", lambda v: gen_friedman1(4, n_unimportant=v), 0),
    count("seed", lambda v: gen_friedman1(4, seed=v), 0),
    count("n_samples", lambda v: gen_noisy_linear(v), 1),
    count("seed", lambda v: gen_noisy_linear(4, seed=v), 0),
    count("seed", lambda v: split_random(_data, 0.5, seed=v), 0),
    real("reg_l1", lambda v: TmpnnModel.create(1, 1, reg_l1=v), 0),
    real("reg_l2", lambda v: TmpnnModel.create(1, 1, reg_l2=v), 0),
    real("learning_rate", lambda v: TrainConfig(learning_rate=v), 0,
         strict=True, inside=1e-3),
    real("early_stop", lambda v: TrainConfig(early_stop=(1, v)), 0),
    real("tau_bar", lambda v: rescale_time(_model, v), 0),
    real("t_end", lambda v: integrate_reference(_ode, [0.5, 0.5], 4, v),
         inside=0.5),
    real("threshold", lambda v: render_ode(_ode, ["x", "y"], v), 0),
    real("noise_std", lambda v: gen_friedman1(4, noise_std=v), 0),
    real("x_range", lambda v: gen_noisy_linear(4, x_range=(v, 1.0)),
         most=1.0, strict=True, inside=0.0),
    real("x_range", lambda v: gen_noisy_linear(4, x_range=(-1.0, v)),
         -1.0, strict=True, inside=0.0),
    real("test_fraction", lambda v: split_random(_data, v), 0, 1,
         strict=True, inside=0.5),
    real("quantile", lambda v: split_quantile(_data, "x1", v), 0, 1,
         strict=True, inside=0.5),
]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_every_numeric_argument_follows_one_rule(data):
    # a bad value is a ValueError naming the argument: never a TypeError,
    # an OverflowError, a warning or a DivergenceError, and never accepted
    for name, call, rejected, drawn, at_bound in ARGUMENTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(at_bound)
            for value in rejected + [data.draw(drawn, label=name)]:
                with pytest.raises(ValueError, match=f"^{name} "):
                    call(value)


def _adamax(gradient):
    params = [np.zeros((2, 2))]
    return adamax_step(AdamaxState.init(params), params, [gradient])


# every array boundary: the argument's name, a call taking the array, the
# shape it accepts, and shapes it must reject by name (predict's width and
# rank messages are its own)
ARRAYS = [
    ("mean", lambda v: Scaler(mean=v, scale=np.ones(2)), (2,), [(2, 1), ()]),
    ("scale", lambda v: Scaler(mean=np.zeros(2), scale=v), (2,),
     [(3,), (2, 1)]),
    ("init_state", lambda v: TmpnnModel(**_sizes, map=identity_weights(2, 2),
                                        init_state=v), (1,), [(2,), (1, 1)]),
    ("X", lambda v: predict(_model, v), (3, 1), []),
    ("delta", lambda v: TaylorMapWeights(basis=build_basis(2, 2), delta=v),
     (6, 2), [(5, 2), (6, 2, 1)]),
    ("w", lambda v: TaylorMapWeights.from_matrix(build_basis(2, 2), v),
     (6, 2), [(5, 2), (6, 2, 1)]),
    ("A", lambda v: OdeSystem(basis=build_basis(2, 2), A=v), (6, 2),
     [(6, 3), (6,)]),
    ("X", lambda v: Dataset(v, np.zeros(3), ["a", "b"], ["y"]), (3, 2),
     [(3, 2, 1)]),
    ("Y", lambda v: Dataset(np.zeros((3, 2)), v, ["a", "b"], ["y"]), (3, 1),
     [(4, 1), (3, 1, 1)]),
    ("gradient[0]", _adamax, (2, 2), [(2, 3), (4,)]),
    ("z0", lambda v: integrate_reference(_ode, v, 4), (2,), [(3,), ()]),
    ("z0", lambda v: integrate_reference(_ode, v, 4), (3, 2),
     [(3, 3), (2, 2, 1)]),
]


def place(at):
    return f"row {at[0]}, column {at[1]}" if len(at) == 2 else f"entry {at[0]}"


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_every_array_argument_follows_one_rule(data):
    # a non-finite entry is a ValueError naming the argument and the
    # entry's place, a wrong shape one naming the argument: never a
    # warning or a DivergenceError, and never accepted
    for name, call, shape, wrong in ARRAYS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(np.full(shape, 0.5))
            at = data.draw(st.tuples(*[st.integers(0, n - 1) for n in shape]),
                           label=name)
            # an int beyond the float range is not finite either; numpy
            # refuses the whole array, so the message names no place
            bad = data.draw(st.sampled_from(NOT_FINITE + [10 ** 400]),
                            label=name)
            value = np.full(shape, 0.5,
                            dtype=object if isinstance(bad, int) else float)
            value[at] = bad
            text = (f"{name} holds an int beyond the float range"
                    if isinstance(bad, int) else
                    f"{name} holds the non-finite value {bad} at {place(at)}")
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call(value)
            if wrong:
                other = data.draw(st.sampled_from(wrong), label=name)
                with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
                    call(np.full(other, 0.5))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.integers(0, 1), st.sampled_from([1.0, -1.0]))
def test_a_horizon_that_overflows_a_weight_names_tau_bar(row, col, sign):
    # rescale_time used to warn, then blame the weight matrix
    model = TmpnnModel.create(1, 1, order=2, steps=2)
    model.map.delta[row, col] = sign * 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            rescale_time(model, 1e10)
    assert str(err.value) == (f"tau_bar * delta holds the non-finite value "
                              f"{sign * math.inf} at row {row}, column {col}")
