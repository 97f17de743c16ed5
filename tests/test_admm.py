"""ADMM linear solver: the step against the textbook update, the stop test and the error paths."""

import numpy as np
import pytest

from admmsvm import admm
from admmsvm.admm import AdmmConfig, build_system_matrix, solve_linear
from admmsvm.eigen import symmetric_evd, truncate_spectrum
from admmsvm.errors import NonFiniteError, SingleClassError
from admmsvm.kernel import KernelParams
from admmsvm.nystrom import NystromConfig, nystrom_factor
from admmsvm.synthetic import gaussian_blobs, mnist_like


def nystrom_design(n):
    """Signed rows w = V and labels y, as nonlinear training passes them."""
    ds = mnist_like(n)
    factor = nystrom_factor(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=64, r=64))
    return factor.v, ds.y


def blobs_design():
    """Signed rows w_i = y_i x_i of a linear problem, and labels y."""
    ds = gaussian_blobs(200, p=5, separation=2.0)
    return ds.y[:, None] * ds.x, ds.y


def column(model, name):
    return np.array([getattr(row, name) for row in model.trace.rows])


def augmented(w, y):
    """The textbook design xt = [x, 1], with x_i = y_i w_i."""
    return np.hstack([y[:, None] * w, np.ones((w.shape[0], 1))])


def textbook_iterates(w, y, cfg):
    """The textbook ADMM update with a cached inverse of the system matrix.

    The system matrix lambda*diag(1, ..., 1, 0) + rho*xt^T xt is built
    here from xt, not by the solver's code. Each pass solves
    for beta_tilde, soft-thresholds the hinge auxiliary a at 1/rho, then
    steps the multiplier u; yields (u, a, beta_tilde).
    """
    xt, rho = augmented(w, y), cfg.rho
    ridge = np.full(xt.shape[1], cfg.lambda_)
    ridge[-1] = 0.0
    a_inv = np.linalg.inv(np.diag(ridge) + rho * (xt.T @ xt))
    aux = np.zeros(xt.shape[0])
    u = np.zeros(xt.shape[0])
    while True:
        beta_tilde = a_inv @ (xt.T @ (y * (u - rho * (aux - 1.0))))
        margin = y * (xt @ beta_tilde)
        aux = admm.soft_threshold(1.0 + u / rho - margin, 1.0 / rho)
        u = u + rho * (1.0 - margin - aux)
        yield u, aux, beta_tilde


@pytest.mark.parametrize("make_design", [lambda: nystrom_design(512), blobs_design],
                         ids=["nystrom_512", "blobs_200"])
def test_every_step_matches_the_textbook_update(make_design, monkeypatch):
    w, y = make_design()
    cfg = AdmmConfig()
    states = []
    step = admm.admm_step

    def recording_step(z, state, rho):
        states.append(step(z, state, rho))
        return states[-1]

    monkeypatch.setattr(admm, "admm_step", recording_step)
    model = solve_linear(w, y, cfg)
    assert model.converged
    assert len(states) == model.iterations == len(model.trace)

    q, d = symmetric_evd(build_system_matrix(w, y, cfg.lambda_, cfg.rho))
    recover = truncate_spectrum(q, d, r=d.shape[0], eig_tol=0.0)
    for state, (u, aux, beta_tilde) in zip(states, textbook_iterates(w, y, cfg)):
        tol = 1e-9 * (1.0 + np.abs(u).max())
        np.testing.assert_allclose(state.u, u, rtol=0.0, atol=tol)
        np.testing.assert_allclose(state.a_hat, cfg.rho * aux, rtol=0.0, atol=tol)
        np.testing.assert_allclose(recover @ state.s, beta_tilde, rtol=1e-9, atol=1e-12)
        margins = y * (augmented(w, y) @ beta_tilde)
        np.testing.assert_allclose(state.margins, margins, rtol=0.0,
                                   atol=1e-9 * (1.0 + np.abs(margins).max()))
    np.testing.assert_array_equal(model.beta, (recover @ states[-1].s)[:-1])


def test_stops_at_first_small_beta_step():
    cfg = AdmmConfig()
    model = solve_linear(*nystrom_design(512), cfg)
    steps = column(model, "beta_residual")
    assert model.converged
    assert steps[-1] <= cfg.epsilon
    assert np.all(steps[:-1] > cfg.epsilon)


def test_iteration_cap_reports_not_converged():
    model = solve_linear(*nystrom_design(512), AdmmConfig(max_iters=5))
    assert not model.converged
    assert model.iterations == len(model.trace) == 5


def test_traced_accuracy_scores_each_iterate():
    w, y = blobs_design()
    model = solve_linear(w, y, AdmmConfig(), track_accuracy=True)
    accuracies = column(model, "train_accuracy")
    assert accuracies[-1] == model.train_accuracy
    values = augmented(w, y) @ np.append(model.beta, model.beta0)
    assert model.train_accuracy == admm.accuracy(values, y)
    assert set(column(solve_linear(w, y, AdmmConfig()), "train_accuracy")) == {None}


@pytest.mark.parametrize("field, value", [
    ("lambda_", 0.0), ("lambda_", -1.0), ("rho", 0.0), ("rho", -1.0),
    ("epsilon", 0.0), ("epsilon", -1e-6), ("max_iters", 0),
])
def test_config_rejects_out_of_range_settings(field, value):
    with pytest.raises(ValueError):
        AdmmConfig(**{field: value})


def test_solve_rejects_a_single_class():
    with pytest.raises(SingleClassError):
        solve_linear(np.arange(10.0)[:, None], np.ones(10), AdmmConfig())


def test_solve_rejects_fewer_than_two_samples():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((1, 3)), np.ones(1), AdmmConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_design_rejects_non_finite_features(bad):
    x = np.zeros((4, 2))
    x[2, 1] = bad
    with pytest.raises(NonFiniteError):
        solve_linear(x, np.array([1.0, -1.0, 1.0, -1.0]), AdmmConfig())


@pytest.mark.parametrize("labels", [[1.0, 0.0, 1.0, -1.0], [2.0, -1.0, 1.0, -1.0]])
def test_design_rejects_labels_other_than_plus_minus_one(labels):
    with pytest.raises(ValueError):
        solve_linear(np.zeros((4, 2)), np.array(labels), AdmmConfig())


def test_design_rejects_rows_and_labels_of_different_lengths():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0]), AdmmConfig())
