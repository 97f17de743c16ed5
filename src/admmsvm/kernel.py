"""RBF kernel evaluation and the label-weighted kernel matrix.

The Gaussian kernel here follows the convention k(xi, xj) =
exp(gamma * ||xi - xj||^2) with gamma strictly negative, and the
label-weighted matrix has entries y_i * y_j * k(x_i, x_j).

RBF values come from two evaluators with two contracts:

- Entries of Q, through ``_sq_dists``: kernel columns (the Nystrom subset
  columns, and the rows of Q that :mod:`admmsvm.smo` fetches one at a
  time) and the full kernel matrix. Each entry is
  exp(gamma * max(0, (s_i + s_j) - 2 <x_i - mu, x_j - mu>)) with mu = X[0]
  and s_i = ||x_i - mu||^2, over rows centred in blocks of
  ``_BLOCK_BUDGET_BYTES``. The dot products are einsum's fixed-order loop,
  not BLAS, so an entry depends on its pair alone, not on the block or
  the call it fell in. The entries are therefore consistent with each
  other bit for bit: kernel columns equal the matching columns of the full
  matrix, the matrix is exactly symmetric with a unit diagonal, and
  repeated calls give the same bits. Each entry is within
  4 * eps * (1 + |gamma| * (s_i + s_j)) of the per-pair reference
  :func:`rbf`, but not bitwise equal to it.
- Decision sums sum_j w_j k(q, f_j), the decision values of
  :mod:`admmsvm.svm`, through ``_rbf_sums``: one GEMM per query block,
  within about 4 * eps * (1 + |gamma| * S) * sum_j |w_j|, where
  S = max ||q - mu||^2 + max ||f - mu||^2 and mu is the support centroid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicateIndexError, IndexOutOfRangeError

# bytes of one block of centred training rows, and of its entries; sized to stay in cache
_BLOCK_BUDGET_BYTES = 256 * 1024
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


def _centre(x, mu, out):
    """Write x - mu into the leading C-ordered rows of out.

    Returns those rows and their squared norms. Every dot product over them
    runs the same fixed-order loop, whichever block a row falls in.
    """
    xc = np.subtract(x, mu, out=out[:x.shape[0]])
    return xc, np.einsum("ij,ij->i", xc, xc)


def _blocks(x, mu, width=0, start=0):
    """Centred blocks of rows start: of x, for entries against ``width`` columns.

    A block's centred rows, and its entries, each fit ``_BLOCK_BUDGET_BYTES``.
    Yields (first row, rows, squared norms); one buffer serves every block.
    """
    n, p = x.shape
    rows = max(1, _BLOCK_BUDGET_BYTES // (8 * max(p, width, 1)))
    buf = np.empty((min(rows, n - start), p))
    for i in range(start, n, rows):
        yield (i, *_centre(x[i:i + rows], mu, buf))


def _sq_dists(a, a_sq, b, b_sq, out):
    """(a_sq_i + b_sq_j) - 2 <a_i, b_j> into out, for centred rows from ``_centre``.

    The cross term is einsum's fixed-order dot product, not BLAS, so an
    entry depends on its pair alone and is the same with its arguments
    swapped.
    """
    cross = np.einsum("ik,jk->ij", a, b)
    cross *= 2.0
    np.add(a_sq[:, None], b_sq[None, :], out=out)
    out -= cross


def _rbf_in_place(d2, gamma):
    """exp(gamma * max(0, d2)) in place; the clamp removes rounding's negative distances."""
    np.maximum(d2, 0.0, out=d2)
    d2 *= gamma
    np.exp(d2, out=d2)


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

    Only blocks on and above the diagonal are evaluated; each row block's
    transpose fills the part below it. The result is exactly symmetric,
    and its diagonal is exactly 1 since k(x, x) = 1 and y_i^2 = 1.
    """
    x, y = _check_samples(X, y)
    n = x.shape[0]
    psi = np.empty((n, n))
    mu = x[:1]
    for start, a, a_sq in _blocks(x, mu):
        stop = start + a.shape[0]
        for col, b, b_sq in _blocks(x, mu, a.shape[0], start):
            _sq_dists(a, a_sq, b, b_sq, psi[start:stop, col:col + b.shape[0]])
        _rbf_in_place(psi[start:stop, start:], params.gamma)
        psi[stop:, start:stop] = psi[start:stop, stop:].T
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
    ordered = np.sort(m)
    if np.any(ordered[1:] == ordered[:-1]):
        raise DuplicateIndexError("subset indices must be distinct")
    mu = x[:1]
    b = np.take(x, m, axis=0, out=np.empty((m.shape[0], x.shape[1])))
    b, b_sq = _centre(b, mu, b)
    cols = np.empty((n, m.shape[0]))
    for start, a, a_sq in _blocks(x, mu, m.shape[0]):
        _sq_dists(a, a_sq, b, b_sq, cols[start:start + a.shape[0]])
    _rbf_in_place(cols, params.gamma)
    cols *= y[:, None]
    cols *= y[m][None, :]
    # entries on the sampled diagonal are k(x, x) = 1 exactly
    cols[m, np.arange(m.shape[0])] = 1.0
    return cols
