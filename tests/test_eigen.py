"""Symmetric eigendecomposition and spectral truncation."""

import warnings

import numpy as np
import pytest

from admmsvm import nystrom
from admmsvm.errors import InvalidCountError, NoConvergenceError, NonFiniteError
from admmsvm.kernel import KernelParams, build_kernel_matrix
from admmsvm.nystrom import NystromConfig, nystrom_factor, symmetric_evd
from admmsvm.synthetic import mnist_like


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a + a.T


def test_identity_is_already_diagonal():
    q, d = symmetric_evd(np.eye(3))
    np.testing.assert_array_equal(d, np.ones(3))
    # eigenvectors may be any permutation of identity columns
    assert np.allclose(np.abs(q) @ np.ones(3), np.ones(3))


def test_two_by_two_known_eigenpairs():
    q, d = symmetric_evd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(d, [3.0, 1.0], atol=1e-12)
    ones = np.array([1.0, 1.0]) / np.sqrt(2.0)
    alt = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(q[:, 0] - ones), np.linalg.norm(q[:, 0] + ones)) < 1e-10
    assert min(np.linalg.norm(q[:, 1] - alt), np.linalg.norm(q[:, 1] + alt)) < 1e-10


def test_recovers_synthesized_spectrum():
    # oracle: build the matrix from a known orthogonal basis and spectrum
    rng = np.random.default_rng(7)
    q0, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    d0 = np.sort(rng.uniform(0.5, 9.0, size=16))[::-1]
    a = q0 @ np.diag(d0) @ q0.T
    _, d = symmetric_evd(a)
    np.testing.assert_allclose(d, d0, atol=1e-8)


@pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
def test_reconstruction_orthogonality_trace(n):
    a = random_symmetric(n, seed=n)
    q, d = symmetric_evd(a)
    fro = np.linalg.norm(a)
    assert np.linalg.norm(a - q @ np.diag(d) @ q.T) <= 1e-8 * fro
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-9
    assert abs(d.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))


def test_spd_eigenvalues_nonnegative():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((12, 12))
    a = b @ b.T
    _, d = symmetric_evd(a)
    assert d.min() >= -1e-10 * np.linalg.norm(a)


def test_eigenvalues_sorted_descending_and_sign_fixed():
    q, d = symmetric_evd(random_symmetric(10, seed=1))
    assert np.all(np.diff(d) <= 1e-15)
    anchors = np.argmax(np.abs(q), axis=0)
    assert np.all(q[anchors, np.arange(10)] >= 0)


def test_deterministic_across_runs():
    a = random_symmetric(14, seed=5)
    q1, d1 = symmetric_evd(a)
    q2, d2 = symmetric_evd(a)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(q1, q2)


def test_non_finite_input_rejected():
    a = np.eye(3)
    a[1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        symmetric_evd(a)


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        symmetric_evd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_lower_triangle_is_what_is_diagonalized():
    # symmetric within tolerance, but the upper triangle is 1e-10 off the lower
    a = random_symmetric(8, seed=11)
    a[np.triu_indices(8, 1)] += 1e-10
    lower = np.tril(a) + np.tril(a, -1).T
    upper = np.triu(a) + np.triu(a, 1).T
    q, d = symmetric_evd(a)
    q_low, d_low = symmetric_evd(lower)
    assert d.tobytes() == d_low.tobytes() and q.tobytes() == q_low.tobytes()
    assert d.tobytes() != symmetric_evd(upper)[1].tobytes()


def test_lapack_failure_raises_typed_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError):
        symmetric_evd(random_symmetric(4, seed=2))
    ds = mnist_like(16)
    with pytest.raises(NoConvergenceError):
        nystrom_factor(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=4, r=4))


def test_outputs_read_only():
    q, d = symmetric_evd(random_symmetric(5, seed=4))
    assert not q.flags.writeable and not d.flags.writeable



class TestTruncateSpectrum:
    """The kept rank and scaled eigenbasis of the Nystrom layer, on chosen spectra."""

    def _basis(self, monkeypatch, q, d, r):
        # nystrom_factor looks symmetric_evd up at call time, so the patched
        # spectrum is the one truncated; W = y_M * basis and y_M * y_M = 1
        c = d.shape[0]
        ds = mnist_like(4 * c, seed=c)
        monkeypatch.setattr(nystrom, "symmetric_evd", lambda psi_mm: (q, d))
        factor = nystrom_factor(ds.x, ds.y, KernelParams(gamma=-1.0), NystromConfig(c=c, r=r))
        return factor.weights * ds.y[factor.m][:, None]

    def _diagonal(self, monkeypatch, d, r):
        d = np.sort(np.asarray(d, dtype=float))[::-1]
        return self._basis(monkeypatch, np.eye(d.shape[0]), d, r)

    def test_two_of_three_kept(self, monkeypatch):
        basis = self._diagonal(monkeypatch, [4.0, 1.0, 0.0], r=2)
        # leading eigenvectors e0, e1, each scaled by d^(-1/2)
        np.testing.assert_array_equal(basis, [[0.5, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_tiny_eigenvalue_dropped(self, monkeypatch):
        with pytest.warns(RuntimeWarning, match="rank 1 "):
            basis = self._diagonal(monkeypatch, [4.0, 1e-15, 0.0], r=2)
        assert basis.shape[1] == 1

    def test_single_eigenvalue(self, monkeypatch):
        basis = self._diagonal(monkeypatch, [9.0], r=1)
        np.testing.assert_allclose(basis, [[1.0 / 3.0]], rtol=0, atol=1e-16)

    def test_full_rank_keeps_everything(self, monkeypatch):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((8, 8))
        q, d = symmetric_evd(b @ b.T + 0.5 * np.eye(8))
        basis = self._basis(monkeypatch, q, d, r=8)
        assert basis.shape[1] == 8
        np.testing.assert_array_equal(basis, q * (1.0 / np.sqrt(d))[None, :])

    def test_bad_rank_rejected(self):
        for c, r in ((2, 3), (2, 0)):
            with pytest.raises(InvalidCountError):
                NystromConfig(c=c, r=r)


@pytest.mark.parametrize("seed, repeat, gamma", [
    (1, False, -1.0),
    (2, True, -1.0),  # every row the same: Psi_MM = y_M y_M^T, rank 1
    (3, False, -1e6),  # rows far apart: Psi_MM ~ I
])
def test_sampled_block_keeps_its_leading_eigenvalue(seed, repeat, gamma):
    # Psi_MM has a unit diagonal, so its largest eigenvalue is at least 1
    # and the truncation always keeps it: the factor never has rank 0
    ds = mnist_like(64, seed=seed)
    x, y = (np.tile(ds.x[:1], (64, 1)) if repeat else ds.x), ds.y
    params = KernelParams(gamma=gamma)
    m = nystrom.sample_subset(64, 16, 0)
    psi_mm = build_kernel_matrix(x[m], y[m], params)
    np.testing.assert_array_equal(np.diag(psi_mm), np.ones(16))
    assert symmetric_evd(psi_mm)[1][0] >= 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        factor = nystrom_factor(x, y, params, NystromConfig(c=16, r=16))
    assert factor.effective_rank >= 1
