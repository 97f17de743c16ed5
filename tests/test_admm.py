"""ADMM linear solver: the efficient and reference paths and their stop test."""

import numpy as np
import pytest

from admmsvm.admm import AdmmConfig, AugmentedDesign, solve_linear
from admmsvm.kernel import KernelParams
from admmsvm.nystrom import NystromConfig, nystrom_factor
from admmsvm.synthetic import gaussian_blobs, mnist_like


def nystrom_design(n):
    ds = mnist_like(n)
    factor = nystrom_factor(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=64, r=64))
    return AugmentedDesign.from_features(ds.y[:, None] * factor.v, ds.y)


def blobs_design():
    ds = gaussian_blobs(200, p=5, separation=2.0)
    return AugmentedDesign.from_features(ds.x, ds.y)


def column(model, name):
    return np.array([getattr(row, name) for row in model.trace.rows])


@pytest.mark.parametrize("make_design", [lambda: nystrom_design(512), blobs_design],
                         ids=["nystrom_512", "blobs_200"])
def test_paths_agree_at_every_iteration(make_design):
    design = make_design()
    eff = solve_linear(design, AdmmConfig(path="efficient"))
    ref = solve_linear(design, AdmmConfig(path="reference"))
    assert eff.converged and ref.converged
    assert eff.iterations == ref.iterations == len(eff.trace) == len(ref.trace)
    for name in ("u_residual", "beta_residual"):
        np.testing.assert_allclose(column(eff, name), column(ref, name), rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(eff.beta, ref.beta, rtol=1e-9, atol=1e-12)
    assert eff.beta0 == pytest.approx(ref.beta0, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("path", ["efficient", "reference"])
def test_stops_at_first_small_beta_step(path):
    cfg = AdmmConfig(path=path)
    model = solve_linear(nystrom_design(512), cfg)
    steps = column(model, "beta_residual")
    assert model.converged
    assert steps[-1] <= cfg.epsilon
    assert np.all(steps[:-1] > cfg.epsilon)


@pytest.mark.parametrize("path", ["efficient", "reference"])
def test_iteration_cap_reports_not_converged(path):
    model = solve_linear(nystrom_design(512), AdmmConfig(max_iters=5, path=path))
    assert not model.converged
    assert model.iterations == len(model.trace) == 5
