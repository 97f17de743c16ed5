"""Nonlinear training: the in-sample accuracy against the final model, and training's memory."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import admmsvm
from admmsvm.admm import AdmmConfig
from admmsvm.kernel import KernelParams, build_kernel_matrix
from admmsvm.nystrom import NystromConfig, nystrom_factor
from admmsvm.svm import accuracy, decision_values, train_nonlinear
from admmsvm.synthetic import mnist_like


def test_last_trace_accuracy_equals_model_accuracy():
    ds = mnist_like(512)
    report = train_nonlinear(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=64, r=64),
                             AdmmConfig(), track_accuracy=True)
    assert report.converged
    assert report.train_accuracy >= 0.95
    assert report.trace.rows[-1].train_accuracy == report.train_accuracy


@pytest.mark.parametrize("track_accuracy", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_reported_accuracy_equals_decision_values_accuracy(seed, track_accuracy):
    ds = mnist_like(512, seed=seed)
    report = train_nonlinear(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=64, r=64),
                             AdmmConfig(), track_accuracy=track_accuracy)
    assert report.train_accuracy == accuracy(decision_values(report.model, ds.x), ds.y)


def test_training_with_mse_holds_one_kernel_matrix():
    n = 2048
    ds = mnist_like(n)
    kernel, nys = KernelParams(gamma=-1.0), NystromConfig(c=64, r=64)
    tracemalloc.start()
    try:
        report = train_nonlinear(ds.x, ds.y, kernel, nys, AdmmConfig(), compute_mse=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8
    v = nystrom_factor(ds.x, ds.y, kernel, nys).v
    dense = np.mean((build_kernel_matrix(ds.x, ds.y, kernel) - v @ v.T) ** 2)
    assert report.nystrom_mse == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("p", [64, 784])
def test_training_holds_few_design_sized_arrays(p):
    n, r = 2048, 64
    ds = mnist_like(n, p=p)
    kernel, nys = KernelParams(gamma=-1.0), NystromConfig(c=r, r=r)
    tracemalloc.start()
    try:
        train_nonlinear(ds.x, ds.y, kernel, nys, AdmmConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V and Z, each about N x (r+1), with no temporary beside Z
    assert peak <= 2.5 * n * (r + 1) * 8


def test_training_imports_no_numpy_ma():
    # numpy.ma loads on first use, and its import would count in the first training peak
    code = (
        "import sys\n"
        "from admmsvm import AdmmConfig, KernelParams, NystromConfig, synthetic, train_nonlinear\n"
        "ds = synthetic.mnist_like(256)\n"
        "train_nonlinear(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=32, r=32),\n"
        "                AdmmConfig())\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(admmsvm.__file__)))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
