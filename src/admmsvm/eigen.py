"""Symmetric eigendecomposition (LAPACK via numpy) and spectral truncation.

One shared code path serves both consumers of eigendecompositions in this
package: the subset-kernel factorization in :mod:`admmsvm.nystrom` and the
inversion of the linear-solver system matrix in :mod:`admmsvm.admm`. Each
uses only the scaled basis Q_k D_k^(-1/2) of the leading k eigenpairs that
:func:`truncate_spectrum` returns: the Nystrom landmark weights, and the map
from the solver's S = Z^T B to beta_tilde.
"""

import numpy as np

from .errors import NoConvergenceError, NonFiniteError, RankDeficientError

DEFAULT_EIG_TOL = 1e-10


def symmetric_evd(a):
    """Diagonalize a symmetric matrix with LAPACK (``np.linalg.eigh``).

    Returns read-only ``(q, d)``: eigenvectors as the columns of ``q`` and
    eigenvalues ``d`` sorted by descending value (ties keep their ``eigh``
    order). Each eigenvector's sign is fixed so its largest-magnitude entry
    is non-negative, making the output reproducible. The input must be a
    non-empty square matrix of finite entries, symmetric within
    1e-8 * max(1, max |a_ij|); its upper triangle is what is diagonalized.
    Raises ``ValueError`` for a bad shape or an asymmetric matrix,
    :class:`~admmsvm.errors.NonFiniteError` for NaN or Inf entries and
    :class:`~admmsvm.errors.NoConvergenceError` when LAPACK fails.
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
    # mirror the upper triangle so the diagonalized matrix is exactly symmetric
    sym = np.triu(a) + np.triu(a, 1).T
    try:
        d, q = np.linalg.eigh(sym)
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


def truncate_spectrum(q, d, r, eig_tol=DEFAULT_EIG_TOL):
    """Scaled basis q[:, :k] * d[:k]^(-1/2) of the leading eigenpairs kept.

    ``q`` and ``d`` come from :func:`symmetric_evd`. The kept rank k, the
    basis's column count, counts eigenvalues among the first ``r`` that are
    larger than ``eig_tol * max(d[0], 1)``. Raises
    :class:`~admmsvm.errors.RankDeficientError` when even the largest
    eigenvalue is at or below ``eig_tol`` (no usable spectrum).
    """
    n = d.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= n={n}")
    if eig_tol < 0:
        raise ValueError("eig_tol must be non-negative")

    if d[0] <= eig_tol:
        raise RankDeficientError(
            f"largest eigenvalue {d[0]:.3e} is at or below eig_tol={eig_tol:.3e}"
        )
    threshold = eig_tol * max(d[0], 1.0)
    kept = d[:r][d[:r] > threshold]
    if kept.shape[0] == 0:
        raise RankDeficientError("no eigenvalue among the first r exceeds the tolerance")
    return q[:, :kept.shape[0]] * (1.0 / np.sqrt(kept))[None, :]
