"""ADMM linear solver: the step against the textbook update, the gap stop and the error paths."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmsvm import admm
from admmsvm.admm import AdmmConfig, AdmmState, build_system_matrix, solve_linear
from admmsvm.errors import NonFiniteError, RankDeficientError, SingleClassError
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


def solve_recording_states(w, y, cfg):
    """solve_linear's model and the AdmmState of every step it took."""
    states = []
    step = admm.admm_step

    def recording_step(wy, a_inv, state, rho):
        states.append(step(wy, a_inv, state, rho))
        return states[-1]

    with mock.patch.object(admm, "admm_step", recording_step):
        model = solve_linear(w, y, cfg)
    return model, states


def augmented(w, y):
    """The textbook design xt = [x, 1], with x_i = y_i w_i."""
    return np.hstack([y[:, None] * w, np.ones((w.shape[0], 1))])


def textbook_system(w, y, cfg):
    """The system matrix lambda*diag(1, ..., 1, 0) + rho*xt^T xt, built from xt."""
    xt = augmented(w, y)
    ridge = np.full(xt.shape[1], cfg.lambda_)
    ridge[-1] = 0.0
    return np.diag(ridge) + cfg.rho * (xt.T @ xt)


def textbook_iterates(w, y, cfg, relax):
    """The textbook over-relaxed ADMM update with a cached inverse of the system matrix.

    The system matrix is :func:`textbook_system`'s, not the solver's. Each
    pass solves for beta_tilde, soft-thresholds the hinge auxiliary a at
    1/rho, then steps the multiplier u; yields (u, a, beta_tilde). Both
    updates use the relaxed margin h = relax * margin + (1 - relax) * (1 - a)
    of the previous a (Boyd et al. 2011, section 3.4.3); relax = 1 is the
    plain update. The soft threshold is written out here, apart from the
    solver's code: t - 1/rho above 1/rho, 0 on [0, 1/rho], t below 0.
    """
    xt, rho = augmented(w, y), cfg.rho
    a_inv = np.linalg.inv(textbook_system(w, y, cfg))
    aux = np.zeros(xt.shape[0])
    u = np.zeros(xt.shape[0])
    while True:
        beta_tilde = a_inv @ (xt.T @ (y * (u - rho * (aux - 1.0))))
        margin = y * (xt @ beta_tilde)
        h = relax * margin + (1.0 - relax) * (1.0 - aux)
        t = 1.0 + u / rho - h
        aux = np.maximum(t - 1.0 / rho, 0.0) + np.minimum(t, 0.0)
        u = u + rho * (1.0 - h - aux)
        yield u, aux, beta_tilde


@pytest.mark.parametrize("relax", [admm._RELAX, 1.0])
@pytest.mark.parametrize("make_design", [lambda: nystrom_design(512), blobs_design],
                         ids=["nystrom_512", "blobs_200"])
def test_every_step_matches_the_textbook_update(make_design, relax):
    w, y = make_design()
    cfg = AdmmConfig()
    with mock.patch.object(admm, "_RELAX", relax):
        model, states = solve_recording_states(w, y, cfg)
    assert model.converged
    assert len(states) == model.iterations == len(model.trace)

    for state, (u, aux, beta_tilde) in zip(states, textbook_iterates(w, y, cfg, relax)):
        tol = 1e-9 * (1.0 + np.abs(u).max())
        np.testing.assert_allclose(state.u, u, rtol=0.0, atol=tol)
        np.testing.assert_allclose(state.a_hat, cfg.rho * aux, rtol=0.0, atol=tol)
        np.testing.assert_allclose(state.beta_tilde, beta_tilde, rtol=1e-9, atol=1e-12)
        margins = y * (augmented(w, y) @ beta_tilde)
        np.testing.assert_allclose(state.margins, margins, rtol=0.0,
                                   atol=1e-9 * (1.0 + np.abs(margins).max()))
    np.testing.assert_array_equal(model.beta, states[-1].beta_tilde[:-1])
    assert model.beta0 == states[-1].beta_tilde[-1]


@settings(max_examples=40, deadline=None)
@given(lambda_=st.floats(0.1, 10.0), rho=st.floats(0.1, 10.0),
       n=st.integers(8, 64), p=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_every_state_is_a_box_projection(lambda_, rho, n, p, seed):
    """u lies in [0, 1], and a_hat = theta - u is 0 inside the box and points out of it on its faces."""
    ds = gaussian_blobs(n, p=p, separation=1.0, seed=seed)
    _, states = solve_recording_states(ds.y[:, None] * ds.x, ds.y,
                                       AdmmConfig(lambda_, rho, max_iters=100))
    assert states
    for state in states:
        u, a_hat = state.u, state.a_hat
        assert np.all((u >= 0.0) & (u <= 1.0))
        assert np.all(a_hat[(u > 0.0) & (u < 1.0)] == 0.0)
        assert np.all(a_hat[u == 1.0] >= 0.0)
        assert np.all(a_hat[u == 0.0] <= 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_step_raises_on_a_non_finite_iterate(bad):
    w, y = blobs_design()
    wy = np.column_stack([w, y])
    a_inv = np.linalg.inv(build_system_matrix(w, y, 10.0, 1.0))
    u = np.zeros_like(y)
    u[2] = bad
    with pytest.raises(NonFiniteError):
        admm.admm_step(wy, a_inv, AdmmState(a_hat=np.zeros_like(y), u=u), 1.0)


def test_stops_at_the_first_check_with_a_small_gap():
    cfg = AdmmConfig()
    model = solve_linear(*nystrom_design(512), cfg)
    checks = [row for row in model.trace.rows if row.gap is not None]
    assert ([row.iteration for row in checks]
            == list(range(admm._GAP_EVERY, model.iterations + 1, admm._GAP_EVERY)))
    assert model.converged
    assert checks[-1].gap == model.final_gap <= cfg.epsilon
    assert all(row.gap > cfg.epsilon for row in checks[:-1])


def test_the_cap_step_is_checked_and_u_residuals_span_the_checks():
    w, y = nystrom_design(512)
    model, states = solve_recording_states(w, y, AdmmConfig(max_iters=12))
    assert not model.converged
    rows = model.trace.rows
    assert [row.iteration for row in rows if row.gap is not None] == [5, 10, 12]
    assert [row.iteration for row in rows if row.u_residual is not None] == [5, 10, 12]
    assert model.final_gap == rows[-1].gap
    u_checked = [np.zeros_like(y)] + [states[k - 1].u for k in (5, 10, 12)]
    for row, before, after in zip((rows[4], rows[9], rows[11]), u_checked, u_checked[1:]):
        assert row.u_residual == pytest.approx(np.linalg.norm(after - before), rel=1e-12)


def test_final_gap_is_the_relative_gap_of_the_returned_model():
    """P is primal_objective at the returned hyperplane; D is at u with the larger class scaled."""
    w, y = nystrom_design(512)
    cfg = AdmmConfig()
    model, states = solve_recording_states(w, y, cfg)
    primal = admm.primal_objective(y[:, None] * w, y, model.beta, model.beta0, cfg.lambda_)
    u = states[-1].u
    pos, neg = u[y > 0].sum(), u[y < 0].sum()
    alpha = np.where(y > 0, u * min(1.0, neg / pos), u * min(1.0, pos / neg))
    assert abs(alpha @ y) <= 1e-12 * alpha.sum()
    w_alpha = w.T @ alpha
    dual = alpha.sum() - (w_alpha @ w_alpha) / (2.0 * cfg.lambda_)
    assert model.final_gap == pytest.approx((primal - dual) / primal, rel=0.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(lambda_=st.floats(0.1, 10.0), rho=st.floats(0.1, 10.0),
       n=st.integers(8, 64), p=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_every_checked_gap_obeys_weak_duality(lambda_, rho, n, p, seed):
    ds = gaussian_blobs(n, p=p, separation=1.0, seed=seed)
    model = solve_linear(ds.y[:, None] * ds.x, ds.y, AdmmConfig(lambda_, rho, max_iters=100))
    gaps = [row.gap for row in model.trace.rows if row.gap is not None]
    assert gaps
    assert min(gaps) >= -1e-12


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
    ("lambda_", np.nan), ("lambda_", np.inf), ("rho", np.nan), ("rho", np.inf),
    ("epsilon", np.nan), ("epsilon", np.inf),
])
def test_config_rejects_out_of_range_settings(field, value):
    with pytest.raises(ValueError):
        AdmmConfig(**{field: value})


def test_solve_rejects_a_single_class():
    with pytest.raises(SingleClassError):
        solve_linear(np.arange(10.0)[:, None], np.ones(10), AdmmConfig())


def test_solve_rejects_fewer_than_two_samples():
    # one row holds one class
    with pytest.raises(SingleClassError):
        solve_linear(np.zeros((1, 3)), np.ones(1), AdmmConfig())


def test_a_failed_factorisation_is_rank_deficient():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(RankDeficientError):
        admm._system_factor(indefinite)


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


def test_solve_does_not_write_to_its_rows_or_labels():
    w, y = (np.array(a) for a in nystrom_design(256))
    assert w.flags.writeable
    before = w.tobytes(), y.tobytes()
    solve_linear(w, y, AdmmConfig())
    assert (w.tobytes(), y.tobytes()) == before
