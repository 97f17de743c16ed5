"""Text loaders: one delimited parser, typed errors naming the line, bounded memory."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from admmsvm import cli, data_io
from admmsvm.data_io import load_delimited, load_delimited_features, load_sparse_text
from admmsvm.errors import AdmmSvmError, MissingValueError, ParseError

ROWS = "0.5,1.0,1\n-0.5,{cell},-1\n0.25,0.75,1\n"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_delimited_non_finite_cell(tmp_path, cell):
    path = tmp_path / "data.csv"
    path.write_text(ROWS.format(cell=cell), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_delimited(path, label_column=-1)
    assert err.value.line == 2


def test_features_non_finite_cell(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("0.5,1.0\n-0.5,nan\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_delimited_features(path)
    assert err.value.line == 2


def test_features_ragged_rows(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("0.5,1.0\n-0.5,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_delimited_features(path)
    assert err.value.line == 2


def test_sparse_non_finite_value(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 1:0.5 2:1.0\n-1 1:inf\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_sparse_text(path)
    assert err.value.line == 2


def test_cli_maps_malformed_files_to_data_exit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "train.csv").write_text(ROWS.format(cell="nan"), encoding="utf-8")
    assert cli.main(["train", "--data", "train.csv"]) == cli.EXIT_DATA

    (tmp_path / "train.csv").write_text(ROWS.format(cell="1.5"), encoding="utf-8")
    assert cli.main(["train", "--data", "train.csv", "--path", "smo"]) == cli.EXIT_OK
    (tmp_path / "x.csv").write_text("0.5,1.0\n-0.5\n", encoding="utf-8")
    assert cli.main(["predict", "--model", "model.svm", "--data", "x.csv",
                     "--no-labels"]) == cli.EXIT_DATA


# --- one parser: the block parse and the per-cell loop agree ----------------

def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def _outcome(load):
    """Loaded arrays as bytes, or the error's type, line and column."""
    try:
        result = load()
    except AdmmSvmError as err:
        return type(err), getattr(err, "line", None), getattr(err, "column", None)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    return result.x.shape, result.x.tobytes(), result.y.tobytes(), result.feature_names


def _both_paths(monkeypatch, load):
    """Outcomes of one load by the block path and by the per-cell path alone,
    and whether the block path fell back to the per-cell loop."""
    calls = []
    real_cells = data_io._parse_cells
    with monkeypatch.context() as patch:
        patch.setattr(data_io, "_parse_cells",
                      lambda *args: calls.append(args) or real_cells(*args))
        block = _outcome(load)
    with monkeypatch.context() as patch:
        patch.setattr(data_io, "_parse_block", lambda *args: None)
        cells = _outcome(load)
    return block, cells, bool(calls)


VALUES = [[0.5, -0.0, 5e-324], [2.5e-310, 0.0, -1.5], [1e-300, -4.9e-324, 3.0],
          [-2.2250738585072014e-308, 7.0, 1.0 / 3.0]]
LABELS = ["1", "-1", "-1", "1"]


def _table(label_at, labels, pad="", newline="\n", header=False, blank_lines=False):
    lines = []
    if header:
        names = ["f0", "f1", "f2"]
        names.insert(label_at, "label")
        lines.append(",".join(names))
    for row, label in zip(VALUES, labels):
        cells = [pad + repr(v) + pad for v in row]
        cells.insert(label_at, pad + label + pad)
        lines.append(",".join(cells))
        if blank_lines:
            lines.append("  ")
    return newline.join(lines) + newline


@pytest.mark.parametrize("label_at", [0, 1, 3])
@pytest.mark.parametrize("labels", [LABELS, ["dog", "cat", "cat", "dog"]])
@pytest.mark.parametrize("layout", [
    {}, {"pad": " \t"}, {"newline": "\r\n"}, {"blank_lines": True}, {"header": True},
    {"pad": " ", "newline": "\r\n", "blank_lines": True, "header": True},
])
def test_block_and_cell_paths_agree_bitwise(tmp_path, monkeypatch, label_at, labels, layout):
    path = _write(tmp_path, _table(label_at, labels, **layout))
    block, cells, fell_back = _both_paths(
        monkeypatch, lambda: load_delimited(path, label_column=label_at))
    assert not fell_back
    assert block == cells
    ds = load_delimited(path, label_column=label_at)
    assert ds.x.tobytes() == np.array(VALUES).tobytes()
    assert ds.y.tolist() == [1.0, -1.0, -1.0, 1.0]
    assert ds.feature_names == (["f0", "f1", "f2"] if layout.get("header") else None)


@pytest.mark.parametrize("layout", [{}, {"pad": " \t", "newline": "\r\n", "blank_lines": True}])
def test_features_loader_is_the_same_parser(tmp_path, monkeypatch, layout):
    path = _write(tmp_path, _table(3, LABELS, **layout))
    block, cells, fell_back = _both_paths(monkeypatch, lambda: load_delimited_features(path))
    assert not fell_back
    assert block == cells
    x = load_delimited_features(path)
    assert x.flags.c_contiguous
    assert x[:, :3].tobytes() == np.array(VALUES)[:, :3].tobytes()
    assert x[:, 3].tolist() == [1.0, -1.0, -1.0, 1.0]


def test_cells_loadtxt_rejects_fall_back_to_float(tmp_path, monkeypatch):
    # float() accepts underscores and non-ASCII digits; loadtxt does not.
    path = _write(tmp_path, "1_0,٣,1\n2.5,4,-1\n")
    block, cells, fell_back = _both_paths(monkeypatch, lambda: load_delimited(path, -1))
    assert fell_back
    assert block == cells
    assert load_delimited(path, -1).x.tolist() == [[10.0, 3.0], [2.5, 4.0]]


# Type, line and column of each malformed file, as the per-cell loader has
# always reported them. The features loader now names the column of a bad
# cell too (it used to report only the line), and reports an empty cell as
# MissingValueError, which is a ParseError.
MALFORMED = [
    ("0.5,1.0,1\n-0.5,1.0,2.0,-1\n", ParseError, 2, None),
    ("0.5,1.0,1\n-0.5,-1\n", ParseError, 2, None),
    ("0.5,1.0,1\n-0.5,,-1\n", MissingValueError, 2, 1),
    ("0.5,1.0,1\n-0.5, \t,-1\n", MissingValueError, 2, 1),
    ("0.5,1.0,1\n\n-0.5,abc,-1\n", ParseError, 3, 1),
    ("0.5,1.0,1\n-0.5,nan,-1\n", ParseError, 2, None),
    ("0.5,1.0,1\n-0.5,inf,-1\n1,x,1\n", ParseError, 3, 1),
    ("0.5,1.0,1\r\n\r\n-0.5,1.0,-1\r\n2,NaN,1\r\n", ParseError, 4, None),
    ("0.5,1.0,1\n-0.5,1.0,-1\n0.5,1e999,1\n", ParseError, 3, None),
    ("a,b,label\n0.5,1\n-0.5,-1\n", ParseError, 2, None),
]


@pytest.mark.parametrize("text, error, line, column", MALFORMED)
def test_malformed_cells_name_their_line_and_column(tmp_path, text, error, line, column):
    path = _write(tmp_path, text)
    with pytest.raises(ParseError) as err:
        load_delimited(path, label_column=-1)
    assert (type(err.value), err.value.line, err.value.column) == (error, line, column)
    with pytest.raises(ParseError) as err:
        load_delimited_features(path)
    assert (type(err.value), err.value.line, err.value.column) == (error, line, column)


def test_label_only_header_only_and_non_utf8_files_are_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        load_delimited(_write(tmp_path, "1\n-1\n"), label_column=-1)
    with pytest.raises(ParseError):
        load_delimited_features(_write(tmp_path, "a,b,label\n"))
    (tmp_path / "latin1.csv").write_bytes("0.5,caf\xe9,1\n".encode("latin-1"))
    with pytest.raises(ParseError):
        load_delimited(tmp_path / "latin1.csv", label_column=-1)


# --- fuzz: any text loads or raises a typed error ----------------------------

NUMERIC_TEXT = st.text(alphabet="0123456789.,-+eEinfaINF_ \t\r\n;:x", max_size=60)
ANY_TEXT = st.one_of(NUMERIC_TEXT, st.text(max_size=40))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=ANY_TEXT, label_column=st.sampled_from([0, 1, -1]),
       delimiter=st.sampled_from([",", ";", " ", "\t", "::"]))
def test_fuzz_delimited_loads_or_raises_typed_error(tmp_path, monkeypatch, text, label_column,
                                                    delimiter):
    path = _write(tmp_path, text)
    block, cells, _ = _both_paths(
        monkeypatch, lambda: load_delimited(path, label_column, delimiter=delimiter))
    assert block == cells
    block, cells, _ = _both_paths(
        monkeypatch, lambda: load_delimited_features(path, delimiter=delimiter))
    assert block == cells


# Indices are kept to a few digits: the sparse format is dense on load, so an
# index of 10**8 asks for an 800 MB row, which a test should not allocate.
SPARSE_TEXT = st.text(alphabet="0123456789.-+einf :\t\r\n", max_size=60).filter(
    lambda s: not re.search(r"\d{5}", s))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(SPARSE_TEXT, st.text(max_size=40).filter(
    lambda s: not re.search(r"\d{5}", s))))
def test_fuzz_sparse_loads_or_raises_typed_error(tmp_path, text):
    path = _write(tmp_path, text, name="data.txt")
    try:
        ds = load_sparse_text(path)
    except AdmmSvmError:
        return
    assert np.isfinite(ds.x).all()


def test_sparse_index_too_large_to_hold_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_sparse_text(_write(tmp_path, "1 1:0.5\n-1 99999999999999999999:1\n", "data.txt"))


# --- memory at MNIST width ----------------------------------------------------

def test_load_delimited_peak_memory_at_mnist_width(tmp_path):
    # 2048 x 784 features with a trailing label, every cell written with repr (34 MB)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2048, 784))
    y = np.where(rng.random(2048) < 0.5, -1, 1)
    path = tmp_path / "wide.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(x.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    tracemalloc.start()
    try:
        ds = load_delimited(path, label_column=-1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.x.tobytes() == x.tobytes()
    assert peak <= 100e6


# --- labels -------------------------------------------------------------------

@pytest.mark.parametrize("labels, expected", [
    (["1", "1.0", "1"], [1.0, 1.0, 1.0]),
    (["1", "1.0", "-1"], [1.0, 1.0, -1.0]),
])
def test_one_label_value_spelt_two_ways_is_one_class(tmp_path, labels, expected):
    text = "".join(f"{i}.5,{label}\n" for i, label in enumerate(labels))
    ds = load_delimited(_write(tmp_path, text), label_column=-1)
    assert ds.y.tolist() == expected
