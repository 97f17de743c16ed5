"""Nonlinear training: the traced in-sample accuracy against the final model."""

import pytest

from admmsvm.admm import AdmmConfig
from admmsvm.kernel import KernelParams
from admmsvm.nystrom import NystromConfig
from admmsvm.svm import train_nonlinear
from admmsvm.synthetic import mnist_like


@pytest.mark.parametrize("path", ["efficient", "reference"])
def test_last_trace_accuracy_equals_model_accuracy(path):
    ds = mnist_like(512)
    report = train_nonlinear(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=64, r=64),
                             AdmmConfig(path=path), track_accuracy=True)
    assert report.converged
    assert report.train_accuracy >= 0.95
    assert report.trace.rows[-1].train_accuracy == report.train_accuracy
