"""SMO dual solver: analytic and pinned optima, a KKT certificate, trace, caps and row cache."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from admmsvm import smo
from admmsvm.kernel import KernelParams, build_kernel_matrix
from admmsvm.smo import SmoConfig, smo_train
from admmsvm.svm import NonlinearModel, accuracy, decision_values
from admmsvm.synthetic import mnist_like, xor_dataset

RBF = KernelParams(gamma=-1.0)


def kkt_gap(x, y, kernel, alpha, c_box):
    """m(alpha) - M(alpha): the maximal violating pair's gap, from a fresh kernel matrix."""
    grad = build_kernel_matrix(x, y, kernel).entries @ alpha - 1.0
    v = -y * grad
    up = np.where(y > 0, alpha < c_box, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < c_box)
    return float(v[up].max() - v[low].min())


def dual_objective(x, y, kernel, alpha):
    psi = build_kernel_matrix(x, y, kernel).entries
    return float(alpha.sum() - 0.5 * alpha @ psi @ alpha)


def model_of(result, x, y, kernel):
    sv = np.flatnonzero(result.alpha > 0.0)
    return NonlinearModel(indices=sv, alpha_weighted=result.alpha[sv] * y[sv],
                          labels=y[sv].copy(), features=x[sv].copy(), bias=result.b,
                          kernel=kernel)


def test_xor_matches_analytic_solution():
    ds = xor_dataset()
    result = smo_train(ds.x, ds.y, RBF, SmoConfig(kkt_tol=1e-9))
    # by symmetry every alpha is equal; each row of Psi sums to 1 + e^-8 - 2 e^-4
    expected = 1.0 / (1.0 + np.exp(-8.0) - 2.0 * np.exp(-4.0))
    assert result.converged
    np.testing.assert_allclose(result.alpha, expected, rtol=0.0, atol=1e-6)
    assert abs(result.b) <= 1e-6


@pytest.mark.parametrize("n, seed, platt_objective", [(256, 0, 29.577830), (512, 1, 43.744802)])
def test_dual_objective_at_least_platt(n, seed, platt_objective):
    ds = mnist_like(n, seed=seed)
    result = smo_train(ds.x, ds.y, RBF, SmoConfig())
    objective = dual_objective(ds.x, ds.y, RBF, result.alpha)
    assert objective >= platt_objective * (1.0 - 1e-5)
    assert result.trace.rows[-1].objective == pytest.approx(objective, rel=1e-9)


def test_converged_result_carries_kkt_certificate():
    ds = mnist_like(256, seed=0)
    cfg = SmoConfig()
    result = smo_train(ds.x, ds.y, RBF, cfg)
    assert result.converged
    assert kkt_gap(ds.x, ds.y, RBF, result.alpha, cfg.c_box) <= cfg.kkt_tol


def test_last_trace_accuracy_equals_model_accuracy():
    ds = mnist_like(256, seed=0)
    result = smo_train(ds.x, ds.y, RBF, SmoConfig())
    model = model_of(result, ds.x, ds.y, RBF)
    assert result.trace.rows[-1].train_accuracy == accuracy(decision_values(model, ds.x), ds.y)


def test_accuracy_target_stops_early():
    ds = mnist_like(256, seed=0)
    full = smo_train(ds.x, ds.y, RBF, SmoConfig(kkt_tol=1e-9))
    assert full.passes > 1
    early = smo_train(ds.x, ds.y, RBF, SmoConfig(kkt_tol=1e-9), accuracy_target=0.5)
    assert not early.converged
    assert early.passes == 1
    assert early.trace.rows[-1].train_accuracy >= 0.5


def test_one_pass_is_at_most_n_pair_updates(monkeypatch):
    ds = mnist_like(256, seed=0)
    calls = []
    update = smo._pair_update

    def counting(*args):
        calls.append(1)
        return update(*args)

    monkeypatch.setattr(smo, "_pair_update", counting)
    full = smo_train(ds.x, ds.y, RBF, SmoConfig(kkt_tol=1e-9))
    assert full.converged and len(calls) > ds.n
    calls.clear()
    capped = smo_train(ds.x, ds.y, RBF, SmoConfig(kkt_tol=1e-9, max_passes=1))
    assert not capped.converged
    assert capped.passes == 1 and len(capped.trace) == 1
    assert len(calls) == ds.n


@st.composite
def two_class_problems(draw):
    n = draw(st.integers(6, 48))
    p = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, p), elements=st.floats(-3.0, 3.0)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    y[:2] = [-1.0, 1.0]
    return x, y


@settings(max_examples=60, deadline=None)
@given(problem=two_class_problems(), c_box=st.sampled_from([0.5, 10.0]),
       gamma=st.floats(-4.0, -0.1))
def test_random_problems_stay_feasible_and_certified(problem, c_box, gamma):
    x, y = problem
    kernel = KernelParams(gamma=gamma)
    cfg = SmoConfig(c_box=c_box)
    result = smo_train(x, y, kernel, cfg)
    assert np.all(result.alpha >= 0.0) and np.all(result.alpha <= c_box)
    assert abs(float(result.alpha @ y)) <= 1e-9 * c_box
    if result.converged:
        assert kkt_gap(x, y, kernel, result.alpha, c_box) <= cfg.kkt_tol


# --- kernel rows on demand ------------------------------------------------------

@pytest.mark.parametrize("n, p, seed, c_box", [
    (512, 64, 0, 0.5), (512, 64, 0, 10.0), (512, 64, 1, 0.5), (512, 64, 1, 10.0),
    (256, 784, 0, 10.0),
])
def test_cached_rows_give_the_dense_matrix_result(n, p, seed, c_box):
    ds = mnist_like(n, p=p, seed=seed)
    cfg = SmoConfig(c_box=c_box)
    q = build_kernel_matrix(ds.x, ds.y, RBF).entries
    alpha, b, trace, converged, passes = smo._solve(lambda t: q[t], ds.y, cfg)
    result = smo_train(ds.x, ds.y, RBF, cfg)
    assert result.alpha.tobytes() == alpha.tobytes()
    assert (result.b, result.passes, result.converged) == (b, passes, converged)
    assert [(r.objective, r.train_accuracy) for r in result.trace.rows] == [
        (r.objective, r.train_accuracy) for r in trace.rows]


def test_rows_are_fetched_once_each_and_equal_the_matrix(monkeypatch):
    ds = mnist_like(512, seed=0)
    q = build_kernel_matrix(ds.x, ds.y, RBF).entries
    fetched = []
    columns = smo.kernel_columns

    def spy(x, y, params, m):
        cols = columns(x, y, params, m)
        fetched.extend((int(t), cols[:, k].copy()) for k, t in enumerate(m))
        return cols

    def no_matrix(*args):
        raise AssertionError("smo_train built the full kernel matrix")

    monkeypatch.setattr(smo, "kernel_columns", spy)
    monkeypatch.setattr(smo, "build_kernel_matrix", no_matrix, raising=False)
    monkeypatch.setattr("admmsvm.kernel.build_kernel_matrix", no_matrix)
    result = smo_train(ds.x, ds.y, RBF, SmoConfig())
    indices = [t for t, _ in fetched]
    assert len(set(indices)) == len(indices)
    assert 0 < result.kernel_rows == len(indices) <= ds.n
    for t, values in fetched:
        assert values.tobytes() == q[t].tobytes()


def test_training_peak_memory_stays_far_below_the_matrix():
    ds = mnist_like(2048)  # its label-weighted kernel matrix alone is 33.5 MB
    tracemalloc.start()
    try:
        result = smo_train(ds.x, ds.y, RBF, SmoConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak <= 8e6
