"""Text loaders: malformed cells raise ParseError naming the line."""

import pytest

from admmsvm import cli
from admmsvm.data_io import load_delimited, load_delimited_features, load_sparse_text
from admmsvm.errors import ParseError

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
