"""Command-line runs end to end, on data the tests write themselves."""

import csv
import json

import numpy as np
import pytest

from admmsvm import cli
from admmsvm.svm import accuracy, decision_values, load_model
from admmsvm.synthetic import mnist_like


def test_bench_convergence_cells_reach_target(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench-convergence", "--sizes", "512",
                     "--solvers", "efficient,reference,smo", "--out", str(out)])
    assert code == cli.EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["solver"] for row in rows] == ["efficient", "reference", "smo"]
    for row in rows:
        assert row["reached_target"] == "True"
        assert float(row["final_accuracy"]) >= 0.95


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
