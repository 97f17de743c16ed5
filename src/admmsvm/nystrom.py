"""Nystrom low-rank factorization of the label-weighted kernel matrix.

Produces a factor V with Psi ~= V V^T from c sampled landmarks and a
rank-r spectral truncation of the sampled block Psi_MM. The sampled block
is diagonalized by :func:`admmsvm.eigen.symmetric_evd`, so a LAPACK
failure surfaces as :class:`~admmsvm.errors.NoConvergenceError` and NaN
features in a landmark row as :class:`~admmsvm.errors.NonFiniteError`.
The factor keeps one c-by-k matrix of landmark weights
W = y_M * Q_k D_k^(-1/2), for the k eigenpairs kept, and uses it twice:
V = Psi[:, M] Q_k D_k^(-1/2) = y * (K(X, X_M) W) is formed as weighted RBF
sums against the landmarks, without storing the N-by-c kernel columns
Psi[:, M]; and the weights beta of the linear solve on V map to the
label-weighted landmark duals as y_M * alpha_M = W beta.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import DEFAULT_EIG_TOL, symmetric_evd, truncate_spectrum
from .errors import DimensionMismatchError, InvalidCountError
from .kernel import _check_samples, _check_subset, _rbf_sums, build_kernel_matrix

_MSE_BLOCK_BYTES = 1 << 20  # one row block of the residual


@dataclass(frozen=True)
class NystromConfig:
    """Sampling and truncation parameters; requires 1 <= r <= c."""

    c: int
    r: int
    seed: int = 0
    eig_tol: float = DEFAULT_EIG_TOL

    def __post_init__(self):
        if not 1 <= self.r <= self.c:
            raise InvalidCountError(f"need 1 <= r <= c, got r={self.r}, c={self.c}")

    def validate_against(self, n):
        if self.c > n:
            raise InvalidCountError(f"c={self.c} exceeds sample count N={n}")


@dataclass(frozen=True, eq=False)
class NystromFactor:
    """Rank factor ``v``, the sampled subset ``m`` and the landmark weights W.

    ``weights`` is W = y_M * Q_k D_k^(-1/2), one row per landmark. ``v`` and
    ``weights`` have ``effective_rank`` columns, which is less than the
    requested rank when truncation dropped near-zero eigenvalues of the
    sampled block.
    """

    v: np.ndarray
    m: np.ndarray
    weights: np.ndarray

    @property
    def effective_rank(self):
        return self.weights.shape[1]


def sample_subset(n, c, seed):
    """Choose c distinct indices from range(n) uniformly, sorted ascending."""
    if c < 1 or c > n:
        raise InvalidCountError(f"need 1 <= c <= n, got c={c}, n={n}")
    rng = np.random.default_rng(seed)
    picked = rng.choice(n, size=c, replace=False)
    picked.sort()
    return picked


def _landmarks(x, y, params, cfg, subset):
    """The landmark stage of :func:`nystrom_factor`: ``(m, x_m, W)`` for checked x, y.

    Everything before the sums that form V: the count checks, the subset M,
    the EVD of Psi_MM, its truncation to rank r (with the warning) and the
    landmark weights W. ``x_m`` is a fresh copy of the landmark rows, which
    the caller may overwrite.
    """
    n = x.shape[0]
    cfg.validate_against(n)
    if subset is None:
        m = sample_subset(n, cfg.c, cfg.seed)
    else:
        m = np.sort(np.asarray(subset, dtype=int))
        if m.shape[0] != cfg.c:
            raise InvalidCountError(f"explicit subset has {m.shape[0]} indices, cfg.c={cfg.c}")
        m = _check_subset(m, n)

    x_m, y_m = x[m], y[m]
    q, d = symmetric_evd(build_kernel_matrix(x_m, y_m, params))
    weights = truncate_spectrum(q, d, cfg.r, cfg.eig_tol)
    if weights.shape[1] < cfg.r:
        warnings.warn(
            f"spectrum truncated to rank {weights.shape[1]} (requested {cfg.r}): "
            "near-zero eigenvalues dropped",
            RuntimeWarning,
            stacklevel=3,
        )
    weights *= y_m[:, None]
    return m, x_m, weights


def nystrom_factor(X, y, params, cfg, subset=None):
    """Build the Nystrom factor for the label-weighted kernel matrix.

    Samples a subset M of size c (or uses the caller-provided ``subset``),
    eigendecomposes the sampled block Psi_MM, truncates its spectrum to
    rank r, and forms v = Psi[:, M] @ Q_k @ diag(d_k)^(-1/2) as the
    weighted RBF sums y * (K(X, X_M) @ W). Here W = y_M * Q_k diag(d_k)^(-1/2)
    is the basis of :func:`admmsvm.eigen.truncate_spectrum` with its rows
    signed by the landmark labels, so the N-by-c columns Psi[:, M] are never
    stored. Each entry of v is within the sums bound of :mod:`admmsvm.kernel`
    taken with the column sums of |W|, which grow as d_k^(-1/2): the
    amplification that the product with the stored columns had. The
    returned arrays are read-only.
    """
    x, y = _check_samples(X, y)
    m, x_m, weights = _landmarks(x, y, params, cfg, subset)
    v = _rbf_sums(x, x_m, weights, params.gamma, overwrite_features=True)
    v *= y[:, None]
    for arr in (v, m, weights):
        arr.flags.writeable = False
    return NystromFactor(v=v, m=m, weights=weights)


def approximation_mse(psi, factor):
    """Mean squared entry-wise error between the kernel matrix ``psi`` and v v^T.

    ``psi`` is the array of :func:`admmsvm.kernel.build_kernel_matrix`. The
    residual is summed over row blocks of ``_MSE_BLOCK_BYTES``, so no N x N
    array is formed beyond ``psi`` itself.
    """
    n = psi.shape[0]
    if factor.v.shape[0] != n:
        raise DimensionMismatchError(
            f"factor covers {factor.v.shape[0]} samples, kernel matrix has {n}"
        )
    v = factor.v
    step = max(1, _MSE_BLOCK_BYTES // (8 * n))
    total = 0.0
    for start in range(0, n, step):
        resid = v[start:start + step] @ v.T
        np.subtract(psi[start:start + step], resid, out=resid)
        total += np.vdot(resid, resid)
    return float(total / (n * n))
