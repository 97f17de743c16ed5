"""RBF kernel and label-weighted kernel matrix construction."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmsvm import kernel
from admmsvm.errors import DimensionMismatchError, DuplicateIndexError, IndexOutOfRangeError
from admmsvm.kernel import KernelParams, build_kernel_matrix, kernel_columns, kernel_rows, rbf
from admmsvm.svm import NonlinearModel, decision_values
from admmsvm.synthetic import mnist_like

MB = 1_000_000
EPS = np.finfo(float).eps


def toy_set(seed=0, n=4, p=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return x, y


def brute_force_psi(x, y, params):
    n = x.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = y[i] * y[j] * rbf(x[i], x[j], params)
    return out


def test_rbf_same_point_is_one():
    params = KernelParams(-2.5)
    v = np.array([0.3, -1.2, 4.0])
    assert rbf(v, v, params) == 1.0


def test_rbf_unit_distance():
    assert rbf([0.0], [1.0], KernelParams(-1.0)) == pytest.approx(math.exp(-1.0))


def test_rbf_two_dim_distance():
    assert rbf([1.0, 1.0], [0.0, 0.0], KernelParams(-0.5)) == pytest.approx(math.exp(-1.0))


def test_rbf_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rbf([1.0, 2.0], [1.0], KernelParams(-1.0))


def test_gamma_must_be_negative():
    with pytest.raises(ValueError):
        KernelParams(0.5)
    with pytest.raises(ValueError):
        KernelParams(0.0)


def test_single_sample_matrix():
    psi = build_kernel_matrix(np.array([[3.0, 1.0]]), np.array([1.0]), KernelParams(-1.0))
    np.testing.assert_array_equal(psi, [[1.0]])


def test_identical_samples_opposite_labels():
    x = np.array([[2.0, 2.0], [2.0, 2.0]])
    psi = build_kernel_matrix(x, np.array([1.0, -1.0]), KernelParams(-1.0))
    np.testing.assert_array_equal(psi, [[1.0, -1.0], [-1.0, 1.0]])


def entry_tolerance(x, gamma):
    """4 eps (1 + |gamma| (||x_i - mu||^2 + ||x_j - mu||^2)) for every pair, mu = x[0]."""
    sq = np.sum((x - x[0]) ** 2, axis=1)
    return 4 * EPS * (1 + abs(gamma) * (sq[:, None] + sq[None, :]))


def test_matches_brute_force_double_loop():
    x, y = toy_set()
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(x, y, params)
    assert np.all(np.abs(psi - brute_force_psi(x, y, params)) <= entry_tolerance(x, -1.0))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([1, 3, 7, 64, 65, 784]), log_scale=st.floats(-3.0, 2.0),
       shift=st.floats(-1e3, 1e3), gamma=st.floats(-10.0, -1e-3),
       n=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_entries_are_within_the_stated_bound_of_per_pair_rbf(p, log_scale, shift, gamma, n, seed):
    rng = np.random.default_rng(seed)
    x = shift + 10.0 ** log_scale * rng.standard_normal((n, p))
    x[-1] = x[rng.integers(0, n - 1)]
    y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    psi = build_kernel_matrix(x, y, KernelParams(gamma))
    err = np.abs(psi - brute_force_psi(x, y, KernelParams(gamma)))
    assert np.all(err <= entry_tolerance(x, gamma))


def test_exactly_symmetric_and_unit_diagonal():
    x, y = toy_set(seed=5, n=17, p=6)
    psi = build_kernel_matrix(x, y, KernelParams(-0.3))
    assert np.array_equal(psi, psi.T)
    assert np.all(np.diag(psi) == 1.0)
    assert np.abs(psi).max() <= 1.0


def test_columns_full_selection_equals_matrix():
    x, y = toy_set(seed=2, n=9, p=3)
    params = KernelParams(-0.8)
    psi = build_kernel_matrix(x, y, params)
    cols = kernel_columns(x, y, params, np.arange(9))
    np.testing.assert_array_equal(cols, psi)


def test_single_column_has_unit_row():
    x, y = toy_set(seed=3, n=6, p=2)
    cols = kernel_columns(x, y, KernelParams(-1.0), [4])
    assert cols.shape == (6, 1)
    assert cols[4, 0] == 1.0


def test_random_columns_match_full_matrix_exactly():
    x, y = toy_set(seed=4, n=4, p=2)
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(x, y, params)
    m = np.array([2, 0, 3])
    cols = kernel_columns(x, y, params, m)
    np.testing.assert_array_equal(cols, psi[:, m])


def test_columns_match_on_larger_instance():
    x, y = toy_set(seed=6, n=40, p=11)
    params = KernelParams(-0.2)
    psi = build_kernel_matrix(x, y, params)
    rng = np.random.default_rng(1)
    m = rng.choice(40, size=13, replace=False)
    np.testing.assert_array_equal(kernel_columns(x, y, params, m), psi[:, m])


def test_column_index_validation():
    x, y = toy_set()
    with pytest.raises(IndexOutOfRangeError):
        kernel_columns(x, y, KernelParams(-1.0), [0, 4])
    with pytest.raises(DuplicateIndexError):
        kernel_columns(x, y, KernelParams(-1.0), [1, 1])
    with pytest.raises(DuplicateIndexError):
        kernel_columns(x, y, KernelParams(-1.0), [1, 0, 1])
    row = kernel_rows(x, y, KernelParams(-1.0))
    for t in (-1, 4):
        with pytest.raises(IndexOutOfRangeError):
            row(t)


def test_bad_labels_rejected():
    x, _ = toy_set()
    with pytest.raises(ValueError):
        build_kernel_matrix(x, np.array([1.0, 2.0, -1.0, 1.0]), KernelParams(-1.0))


@pytest.fixture(scope="module")
def wide():
    """MNIST width, so that the evaluator's blocks are crossed both ways."""
    return mnist_like(320, p=784, seed=3)


def test_wide_instance_spans_several_blocks(wide):
    # a block holds the budget's worth of centred rows, 41 at p = 784, so the
    # 320 rows of the matrix and of its columns cross several block boundaries
    n, p = wide.x.shape
    assert n * p * 8 > 4 * kernel._BLOCK_BUDGET_BYTES


def test_blocked_matrix_is_symmetric_and_equals_its_columns(wide):
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(wide.x, wide.y, params)
    assert np.array_equal(psi, psi.T)
    assert np.all(np.diag(psi) == 1.0)
    np.testing.assert_array_equal(kernel_columns(wide.x, wide.y, params, np.arange(wide.n)), psi)
    m = np.random.default_rng(2).choice(wide.n, size=13, replace=False)
    np.testing.assert_array_equal(kernel_columns(wide.x, wide.y, params, m), psi[:, m])
    row = kernel_rows(wide.x, wide.y, params)
    for t in range(wide.n):
        assert row(t).tobytes() == psi[t].tobytes()


def test_blocked_matrix_entries_are_within_the_bound_of_per_pair_rbf(wide):
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(wide.x, wide.y, params)
    tol = entry_tolerance(wide.x, -1.0)
    rng = np.random.default_rng(4)
    for i, j in rng.integers(0, wide.n, size=(300, 2)):
        expected = wide.y[i] * wide.y[j] * rbf(wide.x[i], wide.x[j], params)
        assert abs(psi[i, j] - expected) <= tol[i, j]


def test_strided_and_fortran_samples_give_the_bits_of_a_contiguous_copy(wide):
    params = KernelParams(-1.0)
    m = np.random.default_rng(5).choice(wide.n // 3, size=13, replace=False)
    for view in (np.asfortranarray(wide.x), wide.x[::3]):
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        y = wide.y[:view.shape[0]]
        assert (build_kernel_matrix(view, y, params).tobytes()
                == build_kernel_matrix(copy, y, params).tobytes())
        assert (kernel_columns(view, y, params, m).tobytes()
                == kernel_columns(copy, y, params, m).tobytes())


@pytest.mark.parametrize("p", [1, 3, 65, 784])
def test_column_sets_agree_with_the_matrix_across_block_boundaries(monkeypatch, p):
    x, y = toy_set(seed=p, n=40, p=p)
    x += 100.0
    params = KernelParams(-0.5 / p)
    psi = build_kernel_matrix(x, y, params)
    m = np.random.default_rng(p).choice(40, size=13, replace=False)
    # a budget of 7 p doubles leaves a few rows a block at most, so column sets
    # and matrix blocks cross many block boundaries
    monkeypatch.setattr(kernel, "_BLOCK_BUDGET_BYTES", 7 * 8 * p)
    np.testing.assert_array_equal(build_kernel_matrix(x, y, params), psi)
    for cols in ([17], m, np.arange(40)):
        np.testing.assert_array_equal(kernel_columns(x, y, params, cols), psi[:, cols])
    row = kernel_rows(x, y, params)
    for t in range(40):
        np.testing.assert_array_equal(row(t), psi[t])


@pytest.mark.parametrize("n_support", [13, 50])
def test_decision_values_match_per_pair_loop(wide, n_support):
    params = KernelParams(-1.0)
    rng = np.random.default_rng(n_support)
    sv = rng.choice(wide.n, size=n_support, replace=False)
    model = NonlinearModel(indices=sv, alpha_weighted=rng.standard_normal(n_support),
                           labels=wide.y[sv], features=wide.x[sv], bias=0.3, kernel=params)
    queries = mnist_like(40, p=784, seed=5).x
    values = decision_values(model, queries)
    expected = [sum(a * rbf(f, q, params) for a, f in zip(model.alpha_weighted, model.features))
                + model.bias for q in queries]
    scale = np.abs(model.alpha_weighted).sum() + abs(model.bias)
    assert np.max(np.abs(values - expected)) <= 1e-12 * scale


def per_pair_sums(x, features, weights, params):
    return np.array([math.fsum(w * rbf(f, q, params) for w, f in zip(weights, features))
                     for q in x])


def sums_tolerance(x, features, weights, gamma):
    """8 eps (1 + |gamma| S) sum|w|, S the largest squared norms about the support centroid."""
    mu = features.mean(axis=0)
    s = (np.max(np.sum((x - mu) ** 2, axis=1), initial=0.0)
         + np.max(np.sum((features - mu) ** 2, axis=1)))
    return 8 * EPS * (1 + abs(gamma) * s) * np.abs(weights).sum()


def support_model(x, n_support, seed):
    rng = np.random.default_rng(seed)
    sv = rng.choice(x.shape[0], size=n_support, replace=False)
    return NonlinearModel(indices=sv, alpha_weighted=rng.standard_normal(n_support),
                          labels=np.ones(n_support), features=x[sv], bias=0.3,
                          kernel=KernelParams(-1.0))


@pytest.mark.parametrize("p", [64, 784])
def test_rbf_sums_on_shifted_data_match_per_pair_loop(p):
    # +100 on every feature makes ||q||^2 about 1e4 p: an expansion that is not
    # centred first loses about 1e4 p eps to cancellation
    x = mnist_like(120, p=p, seed=7).x + 100.0
    features, queries = x[:40], x[20:]
    weights = np.random.default_rng(p).standard_normal(40)
    params = KernelParams(-1.0)
    sums = kernel._rbf_sums(queries, kernel._sums_operand(features), weights, params.gamma)
    expected = per_pair_sums(queries, features, weights, params)
    assert np.max(np.abs(sums - expected)) <= 1e-12 * np.abs(weights).sum()


def test_rbf_sums_of_weight_columns_match_one_column_calls():
    x = mnist_like(256, p=784, seed=2).x
    features = x[::8]
    weights = np.random.default_rng(9).standard_normal((features.shape[0], 32))
    sums = kernel._rbf_sums(x, kernel._sums_operand(features), weights, -1.0)
    assert sums.shape == (256, 32)
    for k in range(weights.shape[1]):
        column = kernel._rbf_sums(x, kernel._sums_operand(features), weights[:, k], -1.0)
        assert np.max(np.abs(sums[:, k] - column)) <= sums_tolerance(x, features, weights[:, k], -1.0)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([1, 3, 64, 784]), log_scale=st.floats(-3.0, 2.0),
       shift=st.floats(-1e3, 1e3), gamma=st.floats(-10.0, -1e-3),
       n_support=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_rbf_sums_error_is_within_the_stated_bound(p, log_scale, shift, gamma, n_support, seed):
    rng = np.random.default_rng(seed)
    features = shift + 10.0 ** log_scale * rng.standard_normal((n_support, p))
    fresh = shift + 10.0 ** log_scale * rng.standard_normal((5, p))
    queries = np.vstack([fresh, features[rng.integers(0, n_support, size=3)]])
    weights = rng.standard_normal(n_support)
    sums = kernel._rbf_sums(queries, kernel._sums_operand(features), weights, gamma)
    expected = per_pair_sums(queries, features, weights, KernelParams(gamma))
    assert np.max(np.abs(sums - expected)) <= sums_tolerance(queries, features, weights, gamma)


def test_decision_values_of_no_rows_is_empty(wide):
    model = support_model(wide.x, 13, seed=1)
    assert decision_values(model, np.empty((0, wide.x.shape[1]))).shape == (0,)


def test_decision_values_with_one_support_vector(wide):
    model = support_model(wide.x, 1, seed=2)
    queries = np.vstack([wide.x[:20], model.features])
    values = decision_values(model, queries)
    expected = per_pair_sums(queries, model.features, model.alpha_weighted, model.kernel)
    tol = sums_tolerance(queries, model.features, model.alpha_weighted, -1.0)
    assert np.max(np.abs(values - model.bias - expected)) <= tol
    assert values[-1] == model.alpha_weighted[0] + model.bias


def test_empty_model_rejects_queries_of_another_width():
    model = NonlinearModel(indices=np.zeros(0, dtype=int), alpha_weighted=np.zeros(0),
                           labels=np.zeros(0), features=np.zeros((0, 5)), bias=0.5,
                           kernel=KernelParams(-1.0))
    np.testing.assert_array_equal(decision_values(model, np.zeros((3, 5))), [0.5] * 3)
    with pytest.raises(DimensionMismatchError):
        decision_values(model, np.zeros((3, 4)))


@pytest.mark.parametrize("chunk", [1, 37])
def test_decision_values_do_not_depend_on_query_blocks(wide, chunk):
    model = support_model(wide.x, 64, seed=3)
    queries = wide.x
    n, p = queries.shape
    assert n * 8 * (p + 64) > 2 * kernel._SUMS_BUDGET_BYTES
    values = decision_values(model, queries)
    pieces = np.concatenate([decision_values(model, queries[i:i + chunk])
                             for i in range(0, n, chunk)])
    tol = sums_tolerance(queries, model.features, model.alpha_weighted, -1.0)
    assert np.max(np.abs(values - pieces)) <= tol


def test_decision_values_of_strided_and_fortran_views_match_a_contiguous_copy(wide):
    model = support_model(wide.x, 50, seed=4)
    tol = sums_tolerance(wide.x, model.features, model.alpha_weighted, -1.0)
    strided = wide.x[::3]
    fortran = np.asfortranarray(wide.x)
    assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
    for view in (strided, fortran):
        copy = np.ascontiguousarray(view)
        assert np.max(np.abs(decision_values(model, view) - decision_values(model, copy))) <= tol


def test_strided_fortran_and_read_only_support_rows_match_a_contiguous_copy(wide):
    model = support_model(wide.x, 50, seed=4)
    tol = sums_tolerance(wide.x, model.features, model.alpha_weighted, -1.0)
    expected = decision_values(model, wide.x)
    doubled = np.empty((2 * model.n_support, model.p))
    doubled[::2] = model.features
    strided = doubled[::2]
    fortran = np.asfortranarray(model.features)
    read_only = model.features.copy()
    read_only.flags.writeable = False
    assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
    for rows in (strided, fortran, read_only):
        view = dataclasses.replace(model, features=rows)
        assert np.max(np.abs(decision_values(view, wide.x) - expected)) <= tol


def test_decision_values_repeat_bit_for_bit(wide):
    model = support_model(wide.x, 64, seed=5)
    first = decision_values(model, wide.x)
    assert decision_values(model, wide.x).tobytes() == first.tobytes()


def traced_peak_bytes(thunk):
    tracemalloc.start()
    try:
        thunk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def mnist_width():
    return mnist_like(2048 + 1024, p=784, seed=1)


def test_kernel_columns_memory_is_bounded_at_mnist_width(mnist_width):
    x, y = mnist_width.x[:2048], mnist_width.y[:2048]
    m = np.arange(0, 2048, 32)
    assert traced_peak_bytes(lambda: kernel_columns(x, y, KernelParams(-1.0), m)) <= 16 * MB


def test_decision_values_memory_is_bounded_at_mnist_width(mnist_width):
    sv = np.arange(0, 2048, 32)
    model = NonlinearModel(indices=sv, alpha_weighted=np.ones(sv.shape[0]),
                           labels=mnist_width.y[sv], features=mnist_width.x[sv], bias=0.0,
                           kernel=KernelParams(-1.0))
    queries = mnist_width.x[2048:]
    assert traced_peak_bytes(lambda: decision_values(model, queries)) <= 16 * MB


def test_kernel_matrix_memory_is_bounded_by_its_output():
    ds = mnist_like(2048, seed=1)
    output = 2048 * 2048 * 8
    peak = traced_peak_bytes(lambda: build_kernel_matrix(ds.x, ds.y, KernelParams(-1.0)))
    assert peak <= 1.25 * output
