"""Symmetric eigendecomposition (LAPACK via numpy) and spectral truncation.

One shared code path serves both consumers of eigendecompositions in this
package: the subset-kernel factorization in :mod:`admmsvm.nystrom` and the
inversion of the linear-solver system matrix in :mod:`admmsvm.admm`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NonFiniteError, RankDeficientError

DEFAULT_EIG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """A validated n-by-n real symmetric matrix.

    Construct through :meth:`from_array`, which rejects non-square or
    non-finite input and makes the stored entries exactly symmetric.
    """

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, a, asym_tol=1e-8):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must be at least 1x1")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix contains NaN or Inf entries")
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > asym_tol * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        # mirror the upper triangle so entries[i,j] == entries[j,i] exactly
        sym = np.triu(a) + np.triu(a, 1).T
        sym.flags.writeable = False
        return cls(entries=sym)


@dataclass(frozen=True, eq=False)
class EvdResult:
    """Eigenvectors (columns of ``q``), eigenvalues ``d`` sorted descending."""

    q: np.ndarray
    d: np.ndarray

    @property
    def n(self):
        return self.d.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralTruncation:
    """Leading part of a spectrum with its inverse and inverse-sqrt diagonals."""

    rank_kept: int
    inv_sqrt: np.ndarray
    inv: np.ndarray


def symmetric_evd(a):
    """Diagonalize a symmetric matrix with LAPACK (``np.linalg.eigh``).

    Eigenpairs are sorted by descending eigenvalue (ties keep their
    ``eigh`` order) and each eigenvector's sign is fixed so its
    largest-magnitude entry is non-negative, making the output reproducible.
    Raises :class:`~admmsvm.errors.NoConvergenceError` when LAPACK fails.
    """
    if not isinstance(a, SymmetricMatrix):
        a = SymmetricMatrix.from_array(a)
    try:
        d, q = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigendecomposition did not converge: {exc}") from exc

    order = np.argsort(-d, kind="stable")
    d = d[order]
    q = q[:, order]

    # sign convention: largest-magnitude entry of each column non-negative
    anchor = np.argmax(np.abs(q), axis=0)
    flip = q[anchor, np.arange(a.n)] < 0
    q[:, flip] = -q[:, flip]

    d.flags.writeable = False
    q.flags.writeable = False
    return EvdResult(q=q, d=d)


def truncate_spectrum(evd, r, eig_tol=DEFAULT_EIG_TOL):
    """Retain the leading ``r`` eigenvalues that exceed the relative tolerance.

    ``rank_kept`` counts eigenvalues among the first ``r`` that are larger
    than ``eig_tol * max(d[0], 1)``; the inverse and inverse-sqrt diagonals
    cover the retained entries only. Raises
    :class:`~admmsvm.errors.RankDeficientError` when even the largest
    eigenvalue is at or below ``eig_tol`` (no usable spectrum).
    """
    n = evd.n
    if not 1 <= r <= n:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= n={n}")
    if eig_tol < 0:
        raise ValueError("eig_tol must be non-negative")

    d = evd.d
    if d[0] <= eig_tol:
        raise RankDeficientError(
            f"largest eigenvalue {d[0]:.3e} is at or below eig_tol={eig_tol:.3e}"
        )
    threshold = eig_tol * max(d[0], 1.0)
    kept = d[:r][d[:r] > threshold]
    rank_kept = kept.shape[0]
    if rank_kept == 0:
        raise RankDeficientError("no eigenvalue among the first r exceeds the tolerance")
    inv = 1.0 / kept
    inv_sqrt = 1.0 / np.sqrt(kept)
    inv.flags.writeable = False
    inv_sqrt.flags.writeable = False
    return SpectralTruncation(rank_kept=int(rank_kept), inv_sqrt=inv_sqrt, inv=inv)
