"""Nystrom low-rank factorization of the label-weighted kernel matrix.

Produces a factor V with Psi ~= V V^T by one recipe: c landmarks M from
:func:`sample_subset`, the sampled block Psi_MM diagonalized by
:func:`symmetric_evd` (LAPACK via numpy), and of its leading r eigenpairs
those whose eigenvalue exceeds ``_EIG_TOL * max(d_1, 1)``. Psi_MM has a
unit diagonal, so its largest eigenvalue d_1 is at least 1 and is kept. A
LAPACK failure surfaces as :class:`~admmsvm.errors.NoConvergenceError` and
NaN features in a landmark row as :class:`~admmsvm.errors.NonFiniteError`.
The factor keeps one c-by-k matrix of landmark weights
W = y_M * Q_k D_k^(-1/2), for the k eigenpairs kept, and uses it twice:
V = Psi[:, M] Q_k D_k^(-1/2) = y * (K(X, X_M) W) is formed as weighted RBF
sums against the landmarks, without storing the N-by-c kernel columns
Psi[:, M]; and the weights beta of the linear solve on V map to the
label-weighted landmark duals as y_M * alpha_M = W beta. V is formed in one
place, into one N x (k+1) buffer [V, y]: training solves on that buffer,
and :func:`nystrom_factor` returns a read-only view of its V columns.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidCountError, NoConvergenceError, NonFiniteError
from .kernel import _check_samples, _rbf_sums, _sums_operand, build_kernel_matrix

_MSE_BLOCK_BYTES = 1 << 20  # one row block of the residual
_EIG_TOL = 1e-10  # relative floor of the eigenvalues of Psi_MM that are kept


@dataclass(frozen=True)
class NystromConfig:
    """c landmarks drawn with ``seed`` and the rank r kept; 1 <= r <= c, and c <= N on use."""

    c: int
    r: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.r <= self.c:
            raise InvalidCountError(f"need 1 <= r <= c, got r={self.r}, c={self.c}")


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


def symmetric_evd(a):
    """Diagonalize a symmetric matrix with LAPACK (``np.linalg.eigh``).

    Returns read-only ``(q, d)``: eigenvectors as the columns of ``q`` and
    eigenvalues ``d`` sorted by descending value (ties keep their ``eigh``
    order). Each eigenvector's sign is fixed so its largest-magnitude entry
    is non-negative, making the output reproducible. The input must be a
    non-empty square matrix of finite entries, symmetric within
    1e-8 * max(1, max |a_ij|); its lower triangle, which is all that
    ``eigh`` reads, is what is diagonalized. Raises ``ValueError`` for a
    bad shape or an asymmetric matrix, :class:`~admmsvm.errors.NonFiniteError`
    for NaN or Inf entries and :class:`~admmsvm.errors.NoConvergenceError`
    when LAPACK fails.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        d, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigendecomposition did not converge: {exc}") from exc

    order = np.argsort(-d, kind="stable")
    d = d[order]
    q = q[:, order]

    # sign convention: largest-magnitude entry of each column non-negative
    anchor = np.argmax(np.abs(q), axis=0)
    flip = q[anchor, np.arange(d.shape[0])] < 0
    q[:, flip] = -q[:, flip]

    d.flags.writeable = False
    q.flags.writeable = False
    return q, d


def _design(x, y, params, cfg):
    """The factor of :func:`nystrom_factor` as ``(m, W, wy)`` for checked x, y.

    The one place V is formed: the subset M, the EVD of Psi_MM, the kept
    rank k (with a warning when k < r) and the landmark weights W, then V
    written by the weighted RBF sums into the first columns of one
    N x (k+1) buffer ``wy`` whose last column is y, so ``wy`` = [V, y] is
    the design of the linear problem on Y V (its signed rows y_i (y_i v_i)
    are V itself). The sums' operand is built from the c x p copy of the
    landmark rows, and that copy is released before ``wy`` is allocated, so
    the two are never held together. The caller owns ``wy``.
    """
    n = x.shape[0]
    m = sample_subset(n, cfg.c, cfg.seed)
    x_m, y_m = x[m], y[m]
    q, d = symmetric_evd(build_kernel_matrix(x_m, y_m, params))
    rank = int(np.count_nonzero(d[:cfg.r] > _EIG_TOL * max(d[0], 1.0)))
    if rank < cfg.r:
        warnings.warn(
            f"spectrum truncated to rank {rank} (requested {cfg.r}): "
            "near-zero eigenvalues dropped",
            RuntimeWarning,
            stacklevel=3,
        )
    weights = q[:, :rank] * (1.0 / np.sqrt(d[:rank]))[None, :]
    weights *= y_m[:, None]
    operand = _sums_operand(x_m)
    del x_m
    wy = np.empty((n, rank + 1))
    _rbf_sums(x, operand, weights, params.gamma, out=wy[:, :rank])
    wy[:, rank] = 1.0
    wy *= y[:, None]  # [V, y]; scaling the contiguous buffer is twice as fast as its strided V
    return m, weights, wy


def nystrom_factor(X, y, params, cfg):
    """Build the Nystrom factor for the label-weighted kernel matrix.

    Samples the landmarks M of :func:`sample_subset`, eigendecomposes the
    sampled block Psi_MM, keeps the k <= r leading eigenpairs that the
    module docstring names, and forms v = Psi[:, M] @ Q_k @ diag(d_k)^(-1/2)
    as the weighted RBF sums y * (K(X, X_M) @ W). Here W = y_M * Q_k
    diag(d_k)^(-1/2) is the scaled eigenbasis with its rows signed by the
    landmark labels, so the N-by-c columns Psi[:, M] are never stored.
    Each entry of v is within the sums bound of :mod:`admmsvm.kernel` taken
    with the column sums of |W|, which grow as d_k^(-1/2): the
    amplification that the product with the stored columns had. ``v`` is
    the first k columns of the same [V, y] buffer that training hands to
    its solve, so it has the bits training solves on. The returned arrays
    are read-only, and so is the buffer behind ``v``.
    """
    x, y = _check_samples(X, y)
    m, weights, wy = _design(x, y, params, cfg)
    for arr in (wy, m, weights):
        arr.flags.writeable = False
    return NystromFactor(v=wy[:, :-1], m=m, weights=weights)


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
