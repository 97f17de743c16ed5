"""Command-line runs end to end, on data the tests write themselves."""

import argparse
import csv
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import admmsvm
from admmsvm import cli
from admmsvm.admm import AdmmConfig, accuracy
from admmsvm.data_io import Dataset, SplitSpec, split
from admmsvm.errors import AdmmSvmError
from admmsvm.kernel import KernelParams, build_kernel_matrix
from admmsvm.nystrom import NystromConfig, approximation_mse, nystrom_factor
from admmsvm.smo import SmoConfig, smo_train
from admmsvm.svm import (
    NonlinearModel,
    decision_values,
    load_model,
    save_model,
    support_model,
    train_nonlinear,
)
from admmsvm.synthetic import mnist_like


def test_module_docstring_names_exactly_the_subcommands():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    summary = cli.__doc__.splitlines()[0].split(":", 1)[1]
    assert set(re.findall(r"[a-z]+(?:-[a-z]+)*", summary)) - {"and"} == set(sub.choices)


# the exit code that the module docstring documents for each error; an error
# class of the package that is missing here fails the test until it is given one
EXIT_CODE_OF = {
    **dict.fromkeys(["DataError", "ParseError", "MissingValueError", "NotBinaryError",
                     "NonAscendingIndexError", "MalformedModelFileError", "DimensionMismatchError",
                     "InsufficientClassSamplesError", "SingleClassError", "OSError"],
                    cli.EXIT_DATA),
    **dict.fromkeys(["ConfigError", "InvalidCountError", "RankDeficientError", "ValueError"],
                    cli.EXIT_USAGE),
    **dict.fromkeys(["NonFiniteError", "NoConvergenceError", "IndexOutOfRangeError",
                     "DuplicateIndexError"], cli.EXIT_INTERNAL),
}


def _package_errors(base=AdmmSvmError):
    for sub in base.__subclasses__():
        if sub.__module__.startswith("admmsvm."):
            yield sub
            yield from _package_errors(sub)


@pytest.mark.parametrize("error", sorted(_package_errors(), key=lambda cls: cls.__name__)
                         + [OSError, ValueError], ids=lambda cls: cls.__name__)
def test_each_error_exits_with_its_documented_code(monkeypatch, error):
    def fail(args):
        raise error("raised by the test")
    monkeypatch.setattr(cli, "cmd_predict", fail)
    code = cli.main(["predict", "--model", "model.svm", "--data", "data.csv"])
    assert code == EXIT_CODE_OF[error.__name__]


def _write_data(directory, x, y):
    np.savetxt(directory / "data.csv", np.column_stack([x, y]), delimiter=",", fmt="%.17g")


def test_train_rejects_the_removed_reference_path(tmp_path, monkeypatch):
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", "data.csv", "--path", "reference"])
    assert exc.value.code == cli.EXIT_USAGE


def test_train_rejects_a_zero_rho(tmp_path, monkeypatch):
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", "--rho", "0"]) == cli.EXIT_USAGE
    assert not (tmp_path / "model.svm").exists()


@pytest.mark.parametrize("flags", [
    ["--lambda", "nan"], ["--lambda", "inf"], ["--rho", "inf"], ["--epsilon", "nan"],
    ["--path", "smo", "--kkt-tol", "nan"], ["--path", "smo", "--lambda", "inf"],
    ["--path", "smo", "--lambda", "0"],
], ids=" ".join)
def test_train_rejects_non_finite_solver_settings(tmp_path, monkeypatch, flags):
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", *flags]) == cli.EXIT_USAGE
    assert not (tmp_path / "model.svm").exists()


@pytest.mark.parametrize("flags", [
    ["--rho", "1e-300"], ["--lambda", "1e300"], ["--lambda", "1e20"],
], ids=" ".join)
def test_train_rejects_settings_that_make_the_system_matrix_singular(tmp_path, monkeypatch,
                                                                     flags):
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", *flags]) == cli.EXIT_USAGE
    assert not (tmp_path / "model.svm").exists()


@pytest.mark.parametrize("flags", [
    ["--rank", "0"], ["--rank", "70", "--subset-size", "64"], ["--subset-size", "300"],
    ["--rank", "300"],
], ids=" ".join)
def test_train_rejects_rank_settings_outside_r_le_c_le_n(tmp_path, monkeypatch, flags):
    ds = mnist_like(200)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", *flags]) == cli.EXIT_USAGE
    assert not (tmp_path / "model.svm").exists()


@pytest.mark.parametrize("path", cli.SOLVERS)
def test_single_class_training_data_is_a_data_error(tmp_path, monkeypatch, path):
    rng = np.random.default_rng(0)
    _write_data(tmp_path, rng.standard_normal((50, 4)), np.ones(50))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", "--path", path]) == cli.EXIT_DATA
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("path", cli.SOLVERS)
def test_one_row_training_data_is_a_data_error(tmp_path, monkeypatch, path):
    (tmp_path / "data.csv").write_text("0.5,-1.5,1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", "--path", path]) == cli.EXIT_DATA
    assert not (tmp_path / "report.json").exists()


def test_train_with_default_flags_converges(tmp_path, monkeypatch):
    ds = mnist_like(2048)
    np.savetxt(tmp_path / "data.csv", np.column_stack([ds.x, ds.y]), delimiter=",",
               fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["iterations"] < report["params"]["max_iters"]
    with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert float(last["train_accuracy"]) == report["train_accuracy"]
    assert float(last["gap"]) == report["final_gap"] <= report["params"]["epsilon"]


def _cells(cell):
    return None if cell == "" else float(cell)


@pytest.mark.parametrize("path", cli.SOLVERS)
def test_trace_csv_holds_every_field_of_the_trace_rows(tmp_path, monkeypatch, path):
    ds = mnist_like(256, seed=3)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", "--path", path]) == cli.EXIT_OK
    with open("trace.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        written = list(reader)
    assert reader.fieldnames == ["iteration", "u_residual", "gap", "train_accuracy",
                                 "elapsed_ms", "objective"]
    kernel = KernelParams(gamma=-1.0)
    if path == "smo":  # the dual objective of every pass, and no ADMM residuals
        trace = smo_train(ds.x, ds.y, kernel, SmoConfig(c_box=1.0 / AdmmConfig().lambda_)).trace
    else:  # the ADMM columns as before, and no objective
        trace = train_nonlinear(ds.x, ds.y, kernel, NystromConfig(c=64, r=64), AdmmConfig(),
                                track_accuracy=True).trace
    names = ["iteration", "u_residual", "gap", "train_accuracy", "objective"]
    assert ([[_cells(row[name]) for name in names] for row in written]
            == [[getattr(row, name) for name in names] for row in trace.rows])
    assert all(float(row["elapsed_ms"]) > 0 for row in written)


@pytest.mark.parametrize("path, settings", [
    ("efficient", {"lambda": 1.0, "rho": 1.0, "epsilon": 1e-3, "max_iters": 500,
                   "c": 64, "r": 64}),
    ("smo", {"c_box": 1.0, "kkt_tol": 0.01, "max_passes": 200}),
])
def test_report_records_the_settings_of_the_path_that_ran(tmp_path, monkeypatch, path, settings):
    ds = mnist_like(256)
    np.savetxt(tmp_path / "data.csv", np.column_stack([ds.x, ds.y]), delimiter=",",
               fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["train", "--data", "data.csv", "--path", path,
                     "--lambda", "1", "--kkt-tol", "0.01"])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["schema_version"] == cli.REPORT_SCHEMA_VERSION
    common = {"gamma": -1.0, "seed": 0, "path": path, "scaling": "none"}
    assert report["params"] == {**common, **settings}
    assert (report["final_gap"] is None) == (path == "smo")


def test_smo_report_accuracy_equals_saved_model_accuracy(tmp_path, monkeypatch):
    ds = mnist_like(512, seed=1)
    np.savetxt(tmp_path / "data.csv", np.column_stack([ds.x, ds.y]), delimiter=",",
               fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", "--path", "smo"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    model = load_model("model.svm")
    assert report["train_accuracy"] == accuracy(decision_values(model, ds.x), ds.y)


@pytest.fixture(scope="module")
def zscore_model(tmp_path_factory):
    """The path of a model trained with --scaling zscore on 40-wide data, and of that data."""
    root = tmp_path_factory.mktemp("zscore")
    ds = mnist_like(200, p=40, seed=2)
    data = root / "data.csv"
    np.savetxt(data, np.column_stack([ds.x, ds.y]), delimiter=",", fmt="%.17g")
    model = root / "model.svm"
    code = cli.main(["train", "--data", str(data), "--scaling", "zscore",
                     "--out-model", str(model), "--out-report", str(root / "report.json"),
                     "--out-trace", str(root / "trace.csv")])
    assert code == cli.EXIT_OK
    assert not (root / "model.svm.scaling.json").exists()
    return model, data


_RECORD_AT = struct.calcsize("<8sIddIII")  # the 40 offsets, then the 40 scales


def _set_record_value(at, value):
    def edit(blob):
        blob = bytearray(blob)
        struct.pack_into("<d", blob, _RECORD_AT + 8 * at, value)
        return bytes(blob)
    return edit


def _set_width(width):
    def edit(blob):
        return blob[:_RECORD_AT - 4] + struct.pack("<I", width) + blob[_RECORD_AT:]
    return edit


@pytest.mark.parametrize("edit", [
    _set_record_value(0, np.nan), _set_record_value(40, 0.0), _set_record_value(79, -1.0),
    _set_record_value(41, np.inf), _set_width(1), _set_width(3),
    lambda blob: blob[:_RECORD_AT + 8 * 79] + blob[_RECORD_AT + 8 * 80:],
], ids=["nan-offset", "zero-scale", "negative-scale", "inf-scale", "1-wide", "3-wide",
        "truncated"])
def test_predict_rejects_a_malformed_scaling_record(tmp_path, zscore_model, edit):
    model, data = zscore_model
    (tmp_path / "model.svm").write_bytes(edit(model.read_bytes()))
    out = tmp_path / "pred.csv"
    code = cli.main(["predict", "--model", str(tmp_path / "model.svm"), "--data", str(data),
                     "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert not out.exists()


def test_scaled_model_copied_alone_predicts_as_in_its_training_directory(tmp_path, zscore_model):
    model, data = zscore_model
    (tmp_path / "model.svm").write_bytes(model.read_bytes())
    written = []
    for i, where in enumerate((model, tmp_path / "model.svm")):
        out = tmp_path / f"pred{i}.csv"
        code = cli.main(["predict", "--model", str(where), "--data", str(data), "--out", str(out)])
        assert code == cli.EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]
    loaded = load_model(model)
    x = np.loadtxt(data, delimiter=",")[:, :-1]
    expected = decision_values(dataclasses.replace(loaded, scaling=None), loaded.scaling.apply(x))
    values = np.loadtxt(tmp_path / "pred1.csv", delimiter=",", skiprows=1)[:, 1]
    assert values.tobytes() == expected.tobytes()


def test_predict_rejects_a_version_1_model_beside_a_scaling_sidecar(tmp_path, monkeypatch,
                                                                    zscore_model):
    model, data = zscore_model
    save_model(dataclasses.replace(load_model(model), scaling=None), tmp_path / "v2.svm")
    blob = (tmp_path / "v2.svm").read_bytes()  # no record: drop the width to get version 1
    (tmp_path / "model.svm").write_bytes(
        blob[:8] + struct.pack("<I", 1) + blob[12:_RECORD_AT - 4] + blob[_RECORD_AT:])
    monkeypatch.chdir(tmp_path)
    predict = ["predict", "--model", "model.svm", "--data", str(data)]
    assert cli.main(predict) == cli.EXIT_OK
    (tmp_path / "predictions.csv").unlink()
    (tmp_path / "model.svm.scaling.json").write_text(
        json.dumps({"mode": "zscore", "offset": [0.0] * 40, "scale": [1.0] * 40}),
        encoding="utf-8")
    assert cli.main(predict) == cli.EXIT_DATA
    assert not (tmp_path / "predictions.csv").exists()


def _write_sparse(path, x, y):
    """LIBSVM-style "label idx:val" lines that list the non-zero features only."""
    lines = [f"{label:+.0f} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v)
             for row, label in zip(x.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def sparse_model(tmp_path_factory):
    """A model that train --format sparse wrote from a 16-wide sparse file, and its rows."""
    root = tmp_path_factory.mktemp("sparse")
    ds = mnist_like(120, p=16, latent=8, seed=2)
    _write_sparse(root / "data.txt", ds.x, ds.y)
    code = cli.main(["train", "--data", str(root / "data.txt"), "--format", "sparse",
                     "--out-model", str(root / "model.svm"),
                     "--out-report", str(root / "report.json"),
                     "--out-trace", str(root / "trace.csv")])
    assert code == cli.EXIT_OK
    return (root / "model.svm").read_bytes(), ds


def _predict_both_forms(tmp_path, monkeypatch, blob, x, y):
    """predict's exit codes and outputs on the rows as a sparse file and as a CSV."""
    (tmp_path / "model.svm").write_bytes(blob)
    _write_sparse(tmp_path / "data.txt", x, y)
    _write_data(tmp_path, x, y)
    monkeypatch.chdir(tmp_path)
    codes = (cli.main(["predict", "--model", "model.svm", "--data", "data.txt",
                       "--format", "sparse", "--out", "sparse.csv"]),
             cli.main(["predict", "--model", "model.svm", "--data", "data.csv",
                       "--out", "dense.csv"]))
    return codes, (tmp_path / "sparse.csv").read_bytes(), (tmp_path / "dense.csv").read_bytes()


def test_predict_reads_the_sparse_file_that_train_read(tmp_path, monkeypatch, sparse_model):
    blob, ds = sparse_model
    codes, sparse, dense = _predict_both_forms(tmp_path, monkeypatch, blob, ds.x, ds.y)
    assert codes == (cli.EXIT_OK, cli.EXIT_OK)
    assert sparse == dense


def test_predict_pads_a_narrower_sparse_file_with_zeros(tmp_path, monkeypatch, sparse_model):
    blob, ds = sparse_model
    x = ds.x.copy()
    x[:, -2:] = 0.0  # no row lists indices 15 or 16, so the file loads 14 wide
    codes, sparse, dense = _predict_both_forms(tmp_path, monkeypatch, blob, x, ds.y)
    assert codes == (cli.EXIT_OK, cli.EXIT_OK)
    assert sparse == dense


def test_predict_rejects_a_sparse_index_beyond_the_model_width(tmp_path, monkeypatch,
                                                                sparse_model):
    blob, ds = sparse_model
    (tmp_path / "model.svm").write_bytes(blob)
    _write_sparse(tmp_path / "data.txt", np.column_stack([ds.x, np.ones(ds.n)]), ds.y)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["predict", "--model", "model.svm", "--data", "data.txt", "--format", "sparse"])
    assert code == cli.EXIT_DATA
    assert not (tmp_path / "predictions.csv").exists()


def test_predict_rejects_no_labels_on_a_sparse_file(tmp_path, monkeypatch, sparse_model):
    blob, ds = sparse_model
    (tmp_path / "model.svm").write_bytes(blob)
    _write_sparse(tmp_path / "data.txt", ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["predict", "--model", "model.svm", "--data", "data.txt", "--format", "sparse",
                     "--no-labels"])
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "predictions.csv").exists()


def test_zscore_is_fitted_on_the_training_rows_alone(tmp_path, monkeypatch):
    ds = mnist_like(200, p=40, seed=4)
    np.savetxt(tmp_path / "data.csv", np.column_stack([ds.x, ds.y]), delimiter=",",
               fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["train", "--data", "data.csv", "--scaling", "zscore",
                     "--train-fraction", "0.5"])
    assert code == cli.EXIT_OK
    offset = load_model("model.svm").scaling.offset
    train, _ = split(Dataset(x=ds.x, y=ds.y), SplitSpec(0.5, seed=0))
    np.testing.assert_array_equal(offset, train.x.mean(axis=0))
    assert not np.allclose(offset, ds.x.mean(axis=0), rtol=0, atol=1e-6)


@pytest.mark.parametrize("mode", ["zscore", "minmax"])
def test_train_exits_3_on_data_whose_scaling_overflows(tmp_path, monkeypatch, mode):
    rows = "1e308,1,1\n-1e308,2,-1\n0,3,1\n5,4,-1\n1,1,1\n2,2,-1\n"
    (tmp_path / "big.csv").write_text(rows, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["train", "--data", "big.csv", "--scaling", mode, "--rank", "2"])
    assert code == cli.EXIT_DATA
    assert not (tmp_path / "model.svm").exists()


def test_predict_exits_3_on_a_row_that_overflows_under_the_scaling(tmp_path, monkeypatch):
    ds = mnist_like(200, p=8, latent=4, seed=1)
    _write_data(tmp_path, ds.x, ds.y)
    rows = ds.x[:5].copy()
    rows[0, 0] = 1e308
    np.savetxt(tmp_path / "feat.csv", rows, delimiter=",", fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["train", "--data", "data.csv", "--scaling", "zscore", "--gamma", "-0.1"])
    assert code == cli.EXIT_OK
    code = cli.main(["predict", "--model", "model.svm", "--data", "feat.csv", "--no-labels"])
    assert code == cli.EXIT_DATA
    # the error comes before the output is opened, so no nan row is written
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("bias, weight", [(np.nan, 1.0), (0.0, np.inf)])
def test_predict_rejects_a_model_with_non_finite_values(tmp_path, monkeypatch, bias, weight):
    ds = mnist_like(64, p=32)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    model = NonlinearModel(indices=np.array([0]), alpha_weighted=np.array([weight]),
                           labels=ds.y[:1], features=ds.x[:1], bias=bias,
                           kernel=KernelParams(gamma=-1.0))
    save_model(model, "model.svm")
    assert cli.main(["predict", "--model", "model.svm", "--data", "data.csv"]) == cli.EXIT_DATA
    assert not (tmp_path / "predictions.csv").exists()


def test_unopenable_data_and_model_paths_are_data_errors(tmp_path, monkeypatch):
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    # a path through a regular file raises NotADirectoryError, an OSError
    assert cli.main(["train", "--data", "data.csv/x"]) == cli.EXIT_DATA
    assert cli.main(["predict", "--model", "data.csv/m", "--data", "data.csv"]) == cli.EXIT_DATA
    assert not (tmp_path / "predictions.csv").exists()


def test_missing_data_paths_resolve_under_the_data_dir(tmp_path, monkeypatch):
    store, work = tmp_path / "store", tmp_path / "work"
    store.mkdir()
    work.mkdir()
    ds = mnist_like(64)
    _write_data(store, ds.x, ds.y)
    monkeypatch.chdir(work)
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(store))
    assert cli.resolve_data_path("data.csv") == os.path.join(str(store), "data.csv")
    assert cli.main(["train", "--data", "data.csv", "--path", "smo"]) == cli.EXIT_OK
    assert (work / "model.svm").exists()
    # a path that exists wins over the data directory
    _write_data(work, ds.x, ds.y)
    assert cli.resolve_data_path("data.csv") == "data.csv"
    # a path found in neither place is returned unchanged and cannot be loaded
    assert cli.resolve_data_path("absent.csv") == "absent.csv"
    assert cli.main(["train", "--data", "absent.csv"]) == cli.EXIT_DATA


def test_subset_size_alone_sets_the_default_rank(tmp_path, monkeypatch):
    ds = mnist_like(300)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--data", "data.csv", "--subset-size", "32"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert (report["params"]["c"], report["params"]["r"]) == (32, 32)


# --- approx-study ---------------------------------------------------------------


def test_train_reports_what_the_study_row_of_its_solver_records(tmp_path, monkeypatch):
    ds = mnist_like(256, seed=7)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    study = ["approx-study", "--data", "data.csv", "--c-list", "8", "--r-list", "8",
             "--seeds", "0"]
    assert cli.main(study) == cli.EXIT_OK
    with open("approx_study.csv", newline="", encoding="utf-8") as fh:
        rows = {row["solver"]: row for row in csv.DictReader(fh)}
    for path, solver in [("efficient", "admm"), ("smo", "smo")]:
        train = ["train", "--data", "data.csv", "--path", path, "--subset-size", "8",
                 "--rank", "8", "--seed", "0"]
        assert cli.main(train) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        row = rows[solver]
        assert int(row["iterations"]) == report["iterations"]
        assert row["converged"] == str(report["converged"])
        assert float(row["train_accuracy"]) == report["train_accuracy"]
        rank = report["effective_rank"]
        assert row["effective_rank"] == ("" if rank is None else str(rank))
    assert rows["admm"]["effective_rank"] == "8"

STUDY_LAMBDA = 5.0  # on this data SMO's accuracy differs at C = 0.1, 1/5 and 5


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """The data of one approx-study run, its exit code and its rows."""
    root = tmp_path_factory.mktemp("study")
    ds = mnist_like(256, seed=5)
    data = root / "data.csv"
    np.savetxt(data, np.column_stack([ds.x, ds.y]), delimiter=",", fmt="%.17g")
    out = root / "study.csv"
    code = cli.main(["approx-study", "--data", str(data), "--c-list", "32,8",
                     "--r-list", "4,8,64", "--seeds", "0,1", "--lambda", str(STUDY_LAMBDA),
                     "--out", str(out)])
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return ds, code, rows


def test_study_writes_one_admm_row_per_valid_combination_then_one_smo_row(study):
    _, code, rows = study
    assert code == cli.EXIT_OK
    assert [(row["solver"], row["c"], row["r"], row["seed"]) for row in rows] == [
        ("admm", c, r, seed) for c, r in [("8", "4"), ("8", "8"), ("32", "4"), ("32", "8")]
        for seed in ("0", "1")
    ] + [("smo", "", "", "")]
    assert all(row["converged"] == "True" for row in rows)
    assert all(float(row["train_ms"]) > 0 for row in rows)


def test_study_admm_rows_match_training_on_the_same_settings(study):
    ds, _, rows = study
    kernel = KernelParams(gamma=-1.0)
    psi = build_kernel_matrix(ds.x, ds.y, kernel)
    for row in rows[:-1]:
        nys = NystromConfig(c=int(row["c"]), r=int(row["r"]), seed=int(row["seed"]))
        report = train_nonlinear(ds.x, ds.y, kernel, nys, AdmmConfig(lambda_=STUDY_LAMBDA))
        assert float(row["train_accuracy"]) == accuracy(decision_values(report.model, ds.x),
                                                        ds.y)
        assert int(row["iterations"]) == len(report.trace)
        assert row["converged"] == str(report.converged)
        factor = nystrom_factor(ds.x, ds.y, kernel, nys)
        assert int(row["effective_rank"]) == factor.effective_rank == report.effective_rank
        assert float(row["mse"]) == approximation_mse(psi, factor)


def test_study_smo_row_is_smo_at_the_box_one_over_lambda(study):
    ds, _, rows = study
    kernel = KernelParams(gamma=-1.0)
    result = smo_train(ds.x, ds.y, kernel, SmoConfig(c_box=1.0 / STUDY_LAMBDA))
    model = support_model(ds.x, ds.y, np.arange(ds.n), result.alpha * ds.y, result.b, kernel)
    smo_row = rows[-1]
    assert int(smo_row["iterations"]) == result.passes
    assert smo_row["converged"] == str(result.converged)
    assert float(smo_row["train_accuracy"]) == result.trace.rows[-1].train_accuracy
    assert float(smo_row["train_accuracy"]) == accuracy(decision_values(model, ds.x), ds.y)


def test_study_truncates_the_factor_as_train_does(tmp_path, monkeypatch):
    # repeated rows make the sampled block singular, so its near-zero eigenpairs are dropped
    base = mnist_like(64, seed=5)
    x, y = np.repeat(base.x, 4, axis=0), np.repeat(base.y, 4)
    _write_data(tmp_path, x, y)
    monkeypatch.chdir(tmp_path)
    with pytest.warns(RuntimeWarning, match="truncated") as caught:
        code = cli.main(["approx-study", "--data", "data.csv", "--c-list", "32",
                         "--r-list", "32"])
    assert code == cli.EXIT_OK
    assert len(caught) == 1  # one warning for the one row, though its MSE re-forms the factor
    with pytest.warns(RuntimeWarning, match="truncated"):
        report = train_nonlinear(x, y, KernelParams(gamma=-1.0), NystromConfig(c=32, r=32),
                                 AdmmConfig())
    with open("approx_study.csv", newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    assert int(row["effective_rank"]) == report.effective_rank < 32
    assert float(row["train_accuracy"]) == accuracy(decision_values(report.model, x), y)


def test_study_times_its_rows_after_numpy_random_loads(tmp_path):
    # numpy loads numpy.random on first use; the first row's train_ms must not carry it
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    code = (
        "import sys\n"
        "from admmsvm import cli\n"
        "assert 'numpy.random' not in sys.modules\n"
        "loaded, train = [], cli.train_nonlinear\n"
        "def recording(*args, **kwargs):\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "    return train(*args, **kwargs)\n"
        "cli.train_nonlinear = recording\n"
        "argv = ['approx-study', '--data', 'data.csv', '--c-list', '8', '--r-list', '8']\n"
        "assert cli.main(argv) == cli.EXIT_OK\n"
        "assert loaded == [True], loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(admmsvm.__file__)))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_study_exits_4_when_a_row_does_not_converge(tmp_path, monkeypatch):
    ds = mnist_like(128, seed=6)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    argv = ["approx-study", "--data", "data.csv", "--c-list", "8", "--r-list", "8",
            "--max-iters", "1"]
    assert cli.main(argv) == cli.EXIT_NOT_CONVERGED
    with open("approx_study.csv", newline="", encoding="utf-8") as fh:
        assert [row["converged"] for row in csv.DictReader(fh)] == ["False", "True"]
    assert cli.main(argv + ["--allow-nonconverged"]) == cli.EXIT_OK


def test_study_without_a_valid_combination_is_a_usage_error(tmp_path, monkeypatch):
    ds = mnist_like(64)
    _write_data(tmp_path, ds.x, ds.y)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["approx-study", "--data", "data.csv", "--c-list", "4,128",
                     "--r-list", "8"])
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "approx_study.csv").exists()


def test_study_refuses_more_than_8192_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    n = 8193
    _write_data(tmp_path, rng.standard_normal((n, 1)), np.where(np.arange(n) % 2, 1.0, -1.0))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["approx-study", "--data", "data.csv", "--c-list", "8", "--r-list", "8"])
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "approx_study.csv").exists()
