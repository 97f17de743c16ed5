"""RBF kernel evaluation and the label-weighted kernel matrix.

The Gaussian kernel here follows the convention k(xi, xj) =
exp(gamma * ||xi - xj||^2) with gamma strictly negative, and the
label-weighted matrix has entries y_i * y_j * k(x_i, x_j).

RBF values come from two evaluators with two contracts:

- Entries of Q are exact and bitwise reproducible, through ``_rbf``: kernel
  columns (the Nystrom subset columns, and the rows of Q that
  :mod:`admmsvm.smo` fetches one at a time) and the full kernel matrix.
  It works through blocks of row pairs whose difference tensor fits
  ``_DIFF_BUDGET_BYTES``, and reduces each pair with the same
  ``np.sum(diff * diff, axis=-1)`` as the per-pair reference :func:`rbf`.
  Each entry therefore depends on its pair alone, not on the block it fell
  in: kernel columns equal the matching columns of the full matrix
  bitwise, and the full matrix is exactly symmetric.
- Decision sums sum_j w_j k(q, f_j), the decision values of
  :mod:`admmsvm.svm`, are within a stated error bound, through
  ``_rbf_sums``: about 4 * eps * (1 + |gamma| * S) * sum_j |w_j|, where
  S = max ||q - mu||^2 + max ||f - mu||^2 and mu is the support centroid.
  Their kernel values are not bitwise equal to ``_rbf``'s.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicateIndexError, IndexOutOfRangeError

# bytes of one block's pairwise difference tensor, sized to stay in cache
_DIFF_BUDGET_BYTES = 256 * 1024
# bytes of one query block's centred rows and its distances to the support
_SUMS_BUDGET_BYTES = 1024 * 1024


@dataclass(frozen=True)
class KernelParams:
    """RBF decay rate; gamma must be negative."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma >= 0:
            raise ValueError(f"gamma must be a finite negative value, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Label-weighted N-by-N kernel matrix; symmetric with unit diagonal."""

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0]


def rbf(xi, xj, params):
    """Evaluate exp(gamma * ||xi - xj||^2) for one pair of feature vectors."""
    xi = np.asarray(xi, dtype=float)
    xj = np.asarray(xj, dtype=float)
    if xi.shape != xj.shape or xi.ndim != 1:
        raise DimensionMismatchError(
            f"feature vectors must share one shape, got {xi.shape} and {xj.shape}"
        )
    diff = xi - xj
    return float(np.exp(params.gamma * np.sum(diff * diff, axis=-1)))


def _block_shape(n_cols, p):
    """Rows and columns of one block whose difference tensor fits the budget.

    A block spans whole rows when all ``n_cols`` columns fit; otherwise it
    is one row's chunk of columns. A block holds at least one pair.
    """
    pairs = max(1, _DIFF_BUDGET_BYTES // (8 * max(p, 1)))
    cols = max(1, min(n_cols, pairs))
    return max(1, pairs // cols), cols


def _rbf(a, b, gamma):
    """The (len(a), len(b)) matrix of exp(gamma * ||a_i - b_j||^2)."""
    out = np.empty((a.shape[0], b.shape[0]))
    rows, cols = _block_shape(b.shape[0], a.shape[1])
    for i in range(0, a.shape[0], rows):
        for j in range(0, b.shape[0], cols):
            diff = a[i:i + rows, None, :] - b[None, j:j + cols, :]
            np.multiply(diff, diff, out=diff)
            out[i:i + rows, j:j + cols] = np.sum(diff, axis=-1)
    out *= gamma
    return np.exp(out, out=out)


def _rbf_sums(x, features, weights, gamma):
    """sum_j weights_j * exp(gamma * ||x_i - features_j||^2) for every row x_i of x.

    Each block of query rows, sized by ``_SUMS_BUDGET_BYTES``, takes one
    matrix product: ||q - f||^2 = ||q||^2 + ||f||^2 - 2 q.f. Centring both
    sides on mu = mean(features) leaves every distance unchanged and keeps
    the expansion's three terms small, so they cancel with little loss. The
    clamp at 0 removes the negative distances that rounding can leave
    between a query and a support vector equal to it. Query blocks have a
    fixed row count for a given (p, support size), so repeated calls on the
    same rows give the same bits.
    """
    mu = features.mean(axis=0)
    f = features - mu
    f_sq = np.einsum("ij,ij->i", f, f)
    out = np.empty(x.shape[0])
    rows = max(1, _SUMS_BUDGET_BYTES // (8 * (x.shape[1] + f.shape[0])))
    for i in range(0, x.shape[0], rows):
        q = x[i:i + rows] - mu
        d2 = q @ f.T
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        d2 += f_sq
        np.maximum(d2, 0.0, out=d2)
        d2 *= gamma
        out[i:i + rows] = np.exp(d2, out=d2) @ weights
    return out


def _check_samples(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatchError(f"X must be 2-D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise DimensionMismatchError(
            f"labels shape {y.shape} does not match {x.shape[0]} samples"
        )
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    return x, y


def build_kernel_matrix(X, y, params):
    """Assemble the full label-weighted kernel matrix.

    Only row blocks on and above the diagonal are evaluated; each block's
    transpose fills the part below it. The result is exactly symmetric,
    and its diagonal is exactly 1 since ||x - x|| = 0 and y_i^2 = 1.
    """
    x, y = _check_samples(X, y)
    n = x.shape[0]
    psi = np.empty((n, n))
    rows, _ = _block_shape(n, x.shape[1])
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = _rbf(x[start:stop], x[start:], params.gamma)
        psi[start:stop, start:] = block
        psi[stop:, start:stop] = block[:, stop - start:].T
    psi *= y[:, None]
    psi *= y[None, :]
    np.fill_diagonal(psi, 1.0)
    psi.flags.writeable = False
    return KernelMatrix(entries=psi)


def kernel_columns(X, y, params, M):
    """Columns M of the full kernel matrix, without N-by-N storage.

    Column j of the result equals column M[j] of
    ``build_kernel_matrix(X, y, params)`` exactly.
    """
    x, y = _check_samples(X, y)
    n = x.shape[0]
    m = np.asarray(M, dtype=int)
    if m.ndim != 1 or m.shape[0] == 0:
        raise ValueError("M must be a non-empty 1-D index list")
    if np.any(m < 0) or np.any(m >= n):
        raise IndexOutOfRangeError(f"subset indices must lie in [0, {n})")
    if np.unique(m).shape[0] != m.shape[0]:
        raise DuplicateIndexError("subset indices must be distinct")
    cols = _rbf(x, x[m], params.gamma)
    cols *= y[:, None]
    cols *= y[m][None, :]
    # entries on the sampled diagonal are k(x, x) = 1 exactly
    cols[m, np.arange(m.shape[0])] = 1.0
    return cols
