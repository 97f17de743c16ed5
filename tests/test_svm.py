"""Nonlinear training: the in-sample accuracy against the final model, and training's memory."""

import tracemalloc

import numpy as np
import pytest

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
    dense = np.mean((build_kernel_matrix(ds.x, ds.y, kernel).entries - v @ v.T) ** 2)
    assert report.nystrom_mse == pytest.approx(dense, rel=1e-12)


def test_training_holds_few_design_sized_arrays():
    n, r = 2048, 64
    ds = mnist_like(n)
    kernel, nys = KernelParams(gamma=-1.0), NystromConfig(c=r, r=r)
    # the first call in a process imports numpy.ma (through np.unique); that is not training
    train_nonlinear(ds.x[:r], ds.y[:r], kernel, nys, AdmmConfig())
    tracemalloc.start()
    try:
        train_nonlinear(ds.x, ds.y, kernel, nys, AdmmConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V, the design [Y V, 1] and Z, each about N x (r+1), with no temporary beside Z
    assert peak <= 3.5 * n * (r + 1) * 8
