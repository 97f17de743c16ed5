"""Nystrom factorization: sampling, exactness, MSE behavior."""

import tracemalloc

import numpy as np
import pytest

from admmsvm import nystrom
from admmsvm.admm import AdmmConfig, solve_linear
from admmsvm.errors import DimensionMismatchError, InvalidCountError
from admmsvm.kernel import KernelParams, build_kernel_matrix
from admmsvm.nystrom import (
    NystromConfig,
    NystromFactor,
    approximation_mse,
    nystrom_factor,
    sample_subset,
    symmetric_evd,
)
from admmsvm.svm import SUPPORT_DROP_TOL, train_nonlinear
from admmsvm.synthetic import mnist_like

PARAMS = KernelParams(-1.0)
EPS = np.finfo(float).eps


def make_data(n, p=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    return x, y


def test_full_selection_returns_all_indices():
    for seed in (0, 1, 99):
        np.testing.assert_array_equal(sample_subset(5, 5, seed), np.arange(5))


def test_sampling_deterministic_for_seed():
    np.testing.assert_array_equal(sample_subset(100, 10, 7), sample_subset(100, 10, 7))


def test_sampling_sorted_distinct():
    m = sample_subset(50, 20, 3)
    assert np.all(np.diff(m) > 0)
    assert m.min() >= 0 and m.max() < 50


def test_sampling_uniform_frequencies():
    # statistical oracle: each index appears with probability c/n = 0.1;
    # over 10^4 trials the frequency stays within 5 sigma of that
    trials = 10_000
    counts = np.zeros(100)
    for seed in range(trials):
        counts[sample_subset(100, 10, seed)] += 1
    freq = counts / trials
    sigma = np.sqrt(0.1 * 0.9 / trials)
    assert np.all(np.abs(freq - 0.1) <= 5 * sigma)


def test_sampling_count_validation():
    with pytest.raises(InvalidCountError):
        sample_subset(5, 0, 0)
    with pytest.raises(InvalidCountError):
        sample_subset(5, 6, 0)


def test_config_bounds():
    with pytest.raises(InvalidCountError):
        NystromConfig(c=2, r=3)
    with pytest.raises(InvalidCountError):
        nystrom_factor(*make_data(3), PARAMS, NystromConfig(c=4, r=2))


def test_exact_when_subset_covers_everything():
    x, y = make_data(6, seed=1)
    psi = build_kernel_matrix(x, y, PARAMS)
    factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=6, r=6, seed=0))
    assert factor.effective_rank == 6
    rel = np.linalg.norm(psi - factor.v @ factor.v.T) / np.linalg.norm(psi)
    assert rel <= 1e-8


def test_rank_one_matrix_reproduced_exactly():
    x = np.tile([[1.5, -0.5]], (6, 1))
    y = np.ones(6)
    psi = build_kernel_matrix(x, y, PARAMS)
    with pytest.warns(RuntimeWarning):
        # the 6x6 matrix of ones is rank 1, so any r > 1 triggers truncation
        factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=2, r=2, seed=0))
    assert factor.effective_rank == 1
    np.testing.assert_allclose(factor.v @ factor.v.T, psi, atol=1e-10)


def test_factor_matches_its_defining_product():
    from admmsvm.kernel import kernel_columns

    x, y = make_data(20, seed=4)
    factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=8, r=5, seed=2))
    cols = kernel_columns(x, y, PARAMS, factor.m)
    expected = cols @ (y[factor.m][:, None] * factor.weights)
    rel = np.linalg.norm(factor.v - expected) / max(np.linalg.norm(expected), 1.0)
    assert rel <= 1e-8


def test_factor_deterministic():
    x, y = make_data(15, seed=6)
    cfg = NystromConfig(c=6, r=4, seed=11)
    f1 = nystrom_factor(x, y, PARAMS, cfg)
    f2 = nystrom_factor(x, y, PARAMS, cfg)
    np.testing.assert_array_equal(f1.v, f2.v)
    np.testing.assert_array_equal(f1.m, f2.m)


def test_approximation_is_positive_semidefinite():
    x, y = make_data(12, seed=8)
    factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=6, r=4, seed=1))
    smallest = np.linalg.eigvalsh(factor.v @ factor.v.T).min()
    assert smallest >= -1e-8


def test_mse_zero_for_exact_factor():
    x, y = make_data(6, seed=2)
    psi = build_kernel_matrix(x, y, PARAMS)
    factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=6, r=6, seed=0))
    assert approximation_mse(psi, factor) <= 1e-12


def test_mse_of_zero_factor_is_mean_square_entry():
    x, y = make_data(5, seed=3)
    psi = build_kernel_matrix(x, y, PARAMS)
    empty = NystromFactor(v=np.zeros((5, 0)), m=np.arange(0), weights=np.zeros((0, 0)))
    assert approximation_mse(psi, empty) == pytest.approx(np.mean(psi**2))


def test_mse_matches_double_loop():
    x, y = make_data(10, seed=5)
    psi = build_kernel_matrix(x, y, PARAMS)
    factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=5, r=3, seed=4))
    approx = factor.v @ factor.v.T
    total = 0.0
    for i in range(10):
        for j in range(10):
            total += (psi[i, j] - approx[i, j]) ** 2
    assert approximation_mse(psi, factor) == pytest.approx(total / 100.0)


def test_mse_holds_one_kernel_matrix():
    n = 2048
    ds = mnist_like(n)
    tracemalloc.start()
    try:
        factor = nystrom_factor(ds.x, ds.y, PARAMS, NystromConfig(c=64, r=64))
        mse = approximation_mse(build_kernel_matrix(ds.x, ds.y, PARAMS), factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8
    v = factor.v
    dense = np.mean((build_kernel_matrix(ds.x, ds.y, PARAMS) - v @ v.T) ** 2)
    assert mse == pytest.approx(dense, rel=1e-12)


def test_mse_dimension_mismatch():
    x, y = make_data(6, seed=2)
    psi = build_kernel_matrix(x, y, PARAMS)
    factor = nystrom_factor(*make_data(8, seed=2), PARAMS, NystromConfig(c=4, r=4, seed=0))
    with pytest.raises(DimensionMismatchError):
        approximation_mse(psi, factor)


def test_mean_mse_improves_with_subset_size():
    # qualitative trend: larger c = r gives a better approximation on average
    x, y = make_data(64, p=4, seed=10)
    psi = build_kernel_matrix(x, y, PARAMS)
    means = []
    for c in (8, 16, 32, 64):
        vals = [
            approximation_mse(
                psi, nystrom_factor(x, y, PARAMS, NystromConfig(c=c, r=c, seed=s))
            )
            for s in range(20)
        ]
        means.append(np.mean(vals))
    assert all(means[i + 1] <= means[i] for i in range(3))


def test_full_spectral_rank_beats_half_for_fixed_subset():
    x, y = make_data(64, p=4, seed=12)
    psi = build_kernel_matrix(x, y, PARAMS)
    for c in (16, 32):
        full = np.mean([
            approximation_mse(
                psi, nystrom_factor(x, y, PARAMS, NystromConfig(c=c, r=c, seed=s))
            )
            for s in range(20)
        ])
        half = np.mean([
            approximation_mse(
                psi, nystrom_factor(x, y, PARAMS, NystromConfig(c=c, r=c // 2, seed=s))
            )
            for s in range(20)
        ])
        assert full <= half


@pytest.mark.parametrize("spectrum, rank", [
    ([4.0, 1.0, 4e-10, 0.0], 2),  # at the threshold 1e-10 * 4 is dropped
    ([0.5, 2e-10, 8e-11, 0.0], 2),  # below 1, the threshold is 1e-10 * 1
])
def test_kept_rank_counts_eigenvalues_above_the_relative_threshold(monkeypatch, spectrum, rank):
    x, y = make_data(12, seed=13)
    d = np.array(spectrum)
    monkeypatch.setattr(nystrom, "symmetric_evd", lambda psi_mm: (np.eye(4), d))
    with pytest.warns(RuntimeWarning, match=f"rank {rank} "):
        factor = nystrom_factor(x, y, PARAMS, NystromConfig(c=4, r=4, seed=0))
    scaled = np.eye(4)[:, :rank] / np.sqrt(d[:rank])
    np.testing.assert_array_equal(factor.weights, y[factor.m][:, None] * scaled)


def test_explicit_subset_override(monkeypatch):
    # the layer looks sample_subset up at call time, so a landmark
    # experiment can swap in its own subset by patching it
    x, y = make_data(12, seed=13)
    subset = np.array([1, 4, 7, 9])
    monkeypatch.setattr(nystrom, "sample_subset", lambda n, c, seed: subset)
    nys = NystromConfig(c=4, r=4, seed=0)
    factor = nystrom_factor(x, y, PARAMS, nys)
    np.testing.assert_array_equal(factor.m, subset)
    # training draws the same landmarks: its support is W beta on them
    weighted = factor.weights @ solve_linear(factor.v, y, AdmmConfig()).beta
    keep = np.abs(weighted) > SUPPORT_DROP_TOL
    model = train_nonlinear(x, y, PARAMS, nys, AdmmConfig()).model
    np.testing.assert_array_equal(model.indices, subset[keep])
    np.testing.assert_array_equal(model.alpha_weighted, weighted[keep])


def factor_through_nystrom(x, y):
    return nystrom_factor(x, y, PARAMS, NystromConfig(c=3, r=3))


def factor_through_training(x, y):
    return train_nonlinear(x, y, PARAMS, NystromConfig(c=3, r=3), AdmmConfig())


@pytest.mark.parametrize("entry", [factor_through_nystrom, factor_through_training])
@pytest.mark.parametrize("labels, error", [
    ([1.0, 0.0] * 6, ValueError),
    ([1.0, -1.0] * 5, DimensionMismatchError),
])
def test_label_errors_are_typed(entry, labels, error):
    x, _ = make_data(12, seed=13)
    with pytest.raises(error):
        entry(x, np.array(labels))


@pytest.fixture(scope="module")
def wide_factor():
    ds = mnist_like(256, p=784, seed=3)
    return ds.x, ds.y, nystrom_factor(ds.x, ds.y, PARAMS, NystromConfig(c=32, r=32, seed=5))


def brute_force_columns(x, y, m, gamma):
    """y_i y_m exp(gamma ||x_i - x_m||^2) by broadcasting, one landmark at a time."""
    cols = np.empty((x.shape[0], m.shape[0]))
    for j, landmark in enumerate(m):
        cols[:, j] = np.exp(gamma * np.sum((x - x[landmark]) ** 2, axis=1))
    return cols * y[:, None] * y[m][None, :]


def test_wide_factor_matches_brute_force_product(wide_factor):
    x, y, factor = wide_factor
    w = y[factor.m][:, None] * factor.weights
    expected = brute_force_columns(x, y, factor.m, PARAMS.gamma) @ w
    # the sums bound of admmsvm.kernel, with the column sums of |W| as sum |w|
    x_m = x[factor.m]
    mu = x_m.mean(axis=0)
    s = np.max(np.sum((x - mu) ** 2, axis=1)) + np.max(np.sum((x_m - mu) ** 2, axis=1))
    bound = 8 * EPS * (1 + abs(PARAMS.gamma) * s) * np.abs(w).sum(axis=0)
    assert np.all(np.max(np.abs(factor.v - expected), axis=0) <= bound)


def test_wide_factor_reproduces_sampled_block(wide_factor):
    x, y, factor = wide_factor
    psi_mm = brute_force_columns(x, y, factor.m, PARAMS.gamma)[factor.m]
    dropped = np.abs(np.linalg.eigvalsh(psi_mm)[::-1][factor.effective_rank:]).sum()
    v_m = factor.v[factor.m]
    assert np.max(np.abs(v_m @ v_m.T - psi_mm)) <= 1e-8 + dropped


def test_landmark_duals_are_the_weights_times_beta():
    ds = mnist_like(512, seed=8)
    nys = NystromConfig(c=32, r=32, seed=3)
    factor = nystrom_factor(ds.x, ds.y, PARAMS, nys)
    beta = solve_linear(factor.v, ds.y, AdmmConfig()).beta
    model = train_nonlinear(ds.x, ds.y, PARAMS, nys, AdmmConfig()).model

    weighted = factor.weights @ beta
    keep = np.abs(weighted) > SUPPORT_DROP_TOL
    np.testing.assert_array_equal(model.indices, factor.m[keep])
    np.testing.assert_array_equal(model.alpha_weighted, weighted[keep])
    # the recovery alpha_M = Q_r (beta / sqrt(d_r)), from the sampled block's spectrum
    q, d = symmetric_evd(build_kernel_matrix(ds.x[factor.m], ds.y[factor.m], PARAMS))
    k = factor.effective_rank
    alpha = q[:, :k] @ (beta / np.sqrt(d[:k]))
    assert np.all(np.abs(alpha) > SUPPORT_DROP_TOL)
    np.testing.assert_allclose(model.alpha_weighted * model.labels, alpha, rtol=0,
                               atol=1e-14 * np.abs(alpha).sum())


def test_factor_stays_intact_and_read_only_after_training():
    ds = mnist_like(256, seed=4)
    nys = NystromConfig(c=32, r=32, seed=1)
    factor = nystrom_factor(ds.x, ds.y, PARAMS, nys)
    v = factor.v.copy()
    train_nonlinear(ds.x, ds.y, PARAMS, nys, AdmmConfig())
    solve_linear(factor.v, ds.y, AdmmConfig())
    assert factor.v.tobytes() == v.tobytes()
    assert not any(arr.flags.writeable for arr in (factor.v, factor.m, factor.weights))
    with pytest.raises(ValueError):  # nor can v be made writeable again
        factor.v.flags.writeable = True
