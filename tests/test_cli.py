"""Command-line runs end to end, on data the tests write themselves."""

import csv
import json

import numpy as np
import pytest

from admmsvm import cli
from admmsvm.data_io import Dataset, SplitSpec, split
from admmsvm.svm import accuracy, decision_values, load_model
from admmsvm.synthetic import mnist_like


def test_bench_convergence_cells_reach_target(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench-convergence", "--sizes", "512",
                     "--solvers", "efficient,smo", "--out", str(out)])
    assert code == cli.EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["solver"] for row in rows] == ["efficient", "smo"]
    for row in rows:
        assert row["reached_target"] == "True"
        assert float(row["final_accuracy"]) >= 0.95


@pytest.mark.parametrize("solvers", ["reference", "efficient,reference", "smo,admm", ""])
def test_bench_convergence_rejects_unknown_solvers_before_running(tmp_path, solvers):
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench-convergence", "--sizes", "512", "--solvers", solvers,
                  "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert not out.exists()


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


@pytest.mark.parametrize("path", cli.SOLVERS)
def test_single_class_training_data_is_a_data_error(tmp_path, monkeypatch, path):
    rng = np.random.default_rng(0)
    _write_data(tmp_path, rng.standard_normal((50, 4)), np.ones(50))
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


@pytest.mark.parametrize("path, settings", [
    ("efficient", {"lambda": 10.0, "rho": 1.0, "epsilon": 1e-6, "max_iters": 500,
                   "c": 64, "r": 64}),
    ("smo", {"c_box": 1.0, "kkt_tol": 0.01, "max_passes": 200}),
])
def test_report_records_the_settings_of_the_path_that_ran(tmp_path, monkeypatch, path, settings):
    ds = mnist_like(256)
    np.savetxt(tmp_path / "data.csv", np.column_stack([ds.x, ds.y]), delimiter=",",
               fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["train", "--data", "data.csv", "--path", path,
                     "--c-box", "1", "--kkt-tol", "0.01"])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["schema_version"] == cli.REPORT_SCHEMA_VERSION
    common = {"gamma": -1.0, "seed": 0, "path": path, "scaling": "none"}
    assert report["params"] == {**common, **settings}


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
    """A model trained with --scaling zscore on 40-wide data, its sidecar, and that data."""
    root = tmp_path_factory.mktemp("zscore")
    ds = mnist_like(200, p=40, seed=2)
    data = root / "data.csv"
    np.savetxt(data, np.column_stack([ds.x, ds.y]), delimiter=",", fmt="%.17g")
    model = root / "model.svm"
    code = cli.main(["train", "--data", str(data), "--scaling", "zscore",
                     "--out-model", str(model), "--out-report", str(root / "report.json"),
                     "--out-trace", str(root / "trace.csv")])
    assert code == cli.EXIT_OK
    sidecar = json.loads((root / "model.svm.scaling.json").read_text(encoding="utf-8"))
    return model.read_bytes(), sidecar, data


def _without_offset(record):
    return json.dumps({k: v for k, v in record.items() if k != "offset"})


def _narrow_offset(record):
    return json.dumps({**record, "offset": record["offset"][:3], "scale": record["scale"][:3]})


def _one_wide_offset(record):
    # broadcasts against any width, so only an explicit width check catches it
    return json.dumps({**record, "offset": record["offset"][:1], "scale": record["scale"][:1]})


def _zero_scale(record):
    return json.dumps({**record, "scale": [0.0] * len(record["scale"])})


@pytest.mark.parametrize("sidecar_text", [
    _without_offset, _narrow_offset, _one_wide_offset, lambda record: "not json {",
    _zero_scale,
], ids=["no-offset", "3-wide", "1-wide", "not-json", "zero-scale"])
def test_predict_rejects_a_malformed_scaling_sidecar(tmp_path, zscore_model, sidecar_text):
    blob, record, data = zscore_model
    (tmp_path / "model.svm").write_bytes(blob)
    (tmp_path / "model.svm.scaling.json").write_text(sidecar_text(record), encoding="utf-8")
    out = tmp_path / "pred.csv"
    code = cli.main(["predict", "--model", str(tmp_path / "model.svm"), "--data", str(data),
                     "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert not out.exists()


def test_predict_applies_a_valid_scaling_sidecar(tmp_path, zscore_model):
    blob, record, data = zscore_model
    (tmp_path / "model.svm").write_bytes(blob)
    (tmp_path / "model.svm.scaling.json").write_text(json.dumps(record), encoding="utf-8")
    code = cli.main(["predict", "--model", str(tmp_path / "model.svm"), "--data", str(data),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == cli.EXIT_OK


def test_zscore_is_fitted_on_the_training_rows_alone(tmp_path, monkeypatch):
    ds = mnist_like(200, p=40, seed=4)
    np.savetxt(tmp_path / "data.csv", np.column_stack([ds.x, ds.y]), delimiter=",",
               fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["train", "--data", "data.csv", "--scaling", "zscore",
                     "--train-fraction", "0.5"])
    assert code == cli.EXIT_OK
    sidecar = json.loads((tmp_path / "model.svm.scaling.json").read_text(encoding="utf-8"))
    train, _ = split(Dataset(x=ds.x, y=ds.y), SplitSpec(0.5, seed=0))
    np.testing.assert_array_equal(sidecar["offset"], train.x.mean(axis=0))
    assert not np.allclose(sidecar["offset"], ds.x.mean(axis=0), rtol=0, atol=1e-6)
