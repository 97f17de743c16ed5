"""RBF kernel and label-weighted kernel matrix construction."""

import math
import tracemalloc

import numpy as np
import pytest

from admmsvm import kernel
from admmsvm.errors import DimensionMismatchError, DuplicateIndexError, IndexOutOfRangeError
from admmsvm.kernel import KernelParams, build_kernel_matrix, kernel_columns, rbf
from admmsvm.svm import NonlinearModel, decision_values
from admmsvm.synthetic import mnist_like

MB = 1_000_000


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
    np.testing.assert_array_equal(psi.entries, [[1.0]])


def test_identical_samples_opposite_labels():
    x = np.array([[2.0, 2.0], [2.0, 2.0]])
    psi = build_kernel_matrix(x, np.array([1.0, -1.0]), KernelParams(-1.0))
    np.testing.assert_array_equal(psi.entries, [[1.0, -1.0], [-1.0, 1.0]])


def test_matches_brute_force_double_loop():
    x, y = toy_set()
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(x, y, params)
    np.testing.assert_array_equal(psi.entries, brute_force_psi(x, y, params))


def test_exactly_symmetric_and_unit_diagonal():
    x, y = toy_set(seed=5, n=17, p=6)
    psi = build_kernel_matrix(x, y, KernelParams(-0.3))
    assert np.array_equal(psi.entries, psi.entries.T)
    assert np.all(np.diag(psi.entries) == 1.0)
    assert np.abs(psi.entries).max() <= 1.0


def test_columns_full_selection_equals_matrix():
    x, y = toy_set(seed=2, n=9, p=3)
    params = KernelParams(-0.8)
    psi = build_kernel_matrix(x, y, params)
    cols = kernel_columns(x, y, params, np.arange(9))
    np.testing.assert_array_equal(cols, psi.entries)


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
    np.testing.assert_array_equal(cols, psi.entries[:, m])


def test_columns_match_on_larger_instance():
    x, y = toy_set(seed=6, n=40, p=11)
    params = KernelParams(-0.2)
    psi = build_kernel_matrix(x, y, params)
    rng = np.random.default_rng(1)
    m = rng.choice(40, size=13, replace=False)
    np.testing.assert_array_equal(kernel_columns(x, y, params, m), psi.entries[:, m])


def test_column_index_validation():
    x, y = toy_set()
    with pytest.raises(IndexOutOfRangeError):
        kernel_columns(x, y, KernelParams(-1.0), [0, 4])
    with pytest.raises(DuplicateIndexError):
        kernel_columns(x, y, KernelParams(-1.0), [1, 1])


def test_bad_labels_rejected():
    x, _ = toy_set()
    with pytest.raises(ValueError):
        build_kernel_matrix(x, np.array([1.0, 2.0, -1.0, 1.0]), KernelParams(-1.0))


@pytest.fixture(scope="module")
def wide():
    """MNIST width, so that the evaluator's blocks are crossed both ways."""
    return mnist_like(320, p=784, seed=3)


def test_wide_instance_spans_several_blocks(wide):
    # 320 columns need several column chunks per row; 13 columns fit whole
    # rows in a block, but 320 such rows need several row blocks
    n, p = wide.x.shape
    assert n * p * 8 > 4 * kernel._DIFF_BUDGET_BYTES
    assert 13 * p * 8 < kernel._DIFF_BUDGET_BYTES < n * 13 * p * 8


def test_blocked_matrix_is_symmetric_and_equals_its_columns(wide):
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(wide.x, wide.y, params).entries
    assert np.array_equal(psi, psi.T)
    assert np.all(np.diag(psi) == 1.0)
    np.testing.assert_array_equal(kernel_columns(wide.x, wide.y, params, np.arange(wide.n)), psi)
    m = np.random.default_rng(2).choice(wide.n, size=13, replace=False)
    np.testing.assert_array_equal(kernel_columns(wide.x, wide.y, params, m), psi[:, m])


def test_blocked_matrix_entries_equal_per_pair_rbf(wide):
    params = KernelParams(-1.0)
    psi = build_kernel_matrix(wide.x, wide.y, params).entries
    rng = np.random.default_rng(4)
    for i, j in rng.integers(0, wide.n, size=(300, 2)):
        assert psi[i, j] == wide.y[i] * wide.y[j] * rbf(wide.x[i], wide.x[j], params)


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
