"""Nonlinear training: the solve core it shares, the in-sample accuracy, and its memory."""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import admmsvm
from admmsvm import svm
from admmsvm.admm import AdmmConfig, accuracy, solve_linear
from admmsvm.kernel import KernelParams
from admmsvm.nystrom import NystromConfig, nystrom_factor
from admmsvm.smo import SmoConfig, smo_train
from admmsvm.svm import decision_values, support_model, train_nonlinear
from admmsvm.synthetic import gaussian_blobs, mnist_like


@pytest.mark.parametrize("case", ["full_rank", "truncated", "wide"])
def test_training_equals_factor_then_solve_then_recovery(case):
    if case == "truncated":  # repeated rows make the sampled block singular
        base = mnist_like(64, seed=5)
        x, y = np.repeat(base.x, 4, axis=0), np.repeat(base.y, 4)
    else:
        ds = mnist_like(256, p=784 if case == "wide" else 64, seed=2)
        x, y = ds.x, ds.y
    kernel, nys, cfg = KernelParams(gamma=-1.0), NystromConfig(c=32, r=32), AdmmConfig()
    with pytest.warns(RuntimeWarning) if case == "truncated" else contextlib.nullcontext():
        report = train_nonlinear(x, y, kernel, nys, cfg, track_accuracy=True)
        factor = nystrom_factor(x, y, kernel, nys)
    assert (factor.effective_rank < 32) == (case == "truncated")
    linear = solve_linear(factor.v, y, cfg, track_accuracy=True)
    model = support_model(x, y, factor.m, factor.weights @ linear.beta, linear.beta0, kernel)
    for name in ("indices", "alpha_weighted", "labels", "features"):
        assert getattr(report.model, name).tobytes() == getattr(model, name).tobytes()
    assert report.model.bias == model.bias
    assert report.effective_rank == factor.effective_rank
    assert (report.converged, report.train_accuracy) == (linear.converged, linear.train_accuracy)
    assert report.final_gap == linear.final_gap
    assert ([(row.u_residual, row.gap, row.train_accuracy) for row in report.trace.rows]
            == [(row.u_residual, row.gap, row.train_accuracy) for row in linear.trace.rows])


def test_training_and_prediction_leave_the_inputs_and_features_intact():
    ds = mnist_like(256, p=784)
    x = ds.x.copy()
    model = train_nonlinear(x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=32, r=32),
                            AdmmConfig()).model
    assert x.tobytes() == ds.x.tobytes()
    np.testing.assert_array_equal(model.features, x[model.indices])
    features = model.features.copy()
    decision_values(model, x)
    assert model.features.tobytes() == features.tobytes()


def test_the_solve_leaves_the_design_intact():
    ds = mnist_like(256)
    kernel, nys = KernelParams(gamma=-1.0), NystromConfig(c=32, r=32)
    designs = []
    solve = svm._solve

    def spying_solve(wy, cfg, track_accuracy):
        linear = solve(wy, cfg, track_accuracy)
        designs.append(wy)
        return linear

    with mock.patch.object(svm, "_solve", spying_solve):
        train_nonlinear(ds.x, ds.y, kernel, nys, AdmmConfig())
    (wy,) = designs
    v = nystrom_factor(ds.x, ds.y, kernel, nys).v
    assert wy[:, :-1].tobytes() == np.ascontiguousarray(v).tobytes()
    assert wy[:, -1].tobytes() == ds.y.tobytes()


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
    # one N x (r+1) buffer holds [V, y]; beside it, the factor's
    # sum blocks (and at p=784 its landmark rows) or the solver's N-vectors
    assert peak <= {64: 1.75, 784: 2.0}[p] * n * (r + 1) * 8


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


@pytest.mark.parametrize("lambda_", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("seed", range(6))
def test_admm_on_every_landmark_matches_exact_kernel_smo(seed, lambda_):
    # at c = r = N the factor spans the whole kernel matrix, V V^T = Psi, so
    # the low-rank problem is the exact one that SMO solves at C = 1/lambda
    ds = gaussian_blobs(48, p=4, separation=2.0, seed=seed)
    held = gaussian_blobs(64, p=4, separation=2.0, seed=100 + seed)
    kernel = KernelParams(gamma=-0.5)
    cfg = AdmmConfig(lambda_=lambda_, rho=1.0, epsilon=1e-9, max_iters=200000)
    report = train_nonlinear(ds.x, ds.y, kernel, NystromConfig(c=48, r=48, seed=seed), cfg)
    assert report.converged and report.effective_rank == 48
    res = smo_train(ds.x, ds.y, kernel,
                    SmoConfig(c_box=1.0 / lambda_, kkt_tol=1e-9, max_passes=10000))
    assert res.converged
    exact = support_model(ds.x, ds.y, np.arange(48), res.alpha * ds.y, res.b, kernel)
    gap = np.abs(decision_values(report.model, held.x) - decision_values(exact, held.x))
    assert gap.max() <= 1e-6
