"""RBF kernel evaluation and the label-weighted kernel matrix.

The Gaussian kernel here follows the convention k(xi, xj) =
exp(gamma * ||xi - xj||^2) with gamma strictly negative, and the
label-weighted matrix has entries y_i * y_j * k(x_i, x_j).

RBF values come from two evaluators with two contracts:

- Entries of Q, through one routine, ``_columns``: the full kernel matrix
  (all N columns, and with it the Nystrom landmark block Psi_MM), kernel
  columns, and the row source ``kernel_rows`` from which :mod:`admmsvm.smo`
  fetches the rows of Q one at a time. Each entry is
  exp(gamma * max(0, (s_i + s_j) - 2 <x_i - mu, x_j - mu>)) with mu = X[0]
  and s_i = ||x_i - mu||^2, over rows centred in blocks of
  ``_BLOCK_BUDGET_BYTES``. The dot products are einsum's fixed-order loop,
  not BLAS, so an entry depends on its pair alone, in either order, not on
  the block or the call it fell in. The entries are therefore consistent
  with each other bit for bit: kernel columns and rows equal the matching
  columns and rows of the full matrix, the matrix is exactly symmetric with
  a unit diagonal, and repeated calls give the same bits. Each entry is
  within 4 * eps * (1 + |gamma| * (s_i + s_j)) of the per-pair reference
  :func:`rbf`, but not bitwise equal to it.
- Weighted sums sum_j w_j k(q, f_j), through ``_rbf_sums``: the decision
  values of :mod:`admmsvm.svm` (one weight vector) and the Nystrom factor
  V of :mod:`admmsvm.nystrom` (one weight column per rank). Both norm
  terms ride in the distance GEMM: each query block, written as rows
  [q - mu, ||q - mu||^2, 1], takes one product with the operand of
  ``_sums_operand``, rows [-2 (f_j - mu), 1, ||f_j - mu||^2], where mu is
  the centroid of the rows f_j. Each sum is within about
  4 * eps * (1 + |gamma| * S) * sum_j |w_j|, where
  S = max ||q - mu||^2 + max ||f - mu||^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicateIndexError, IndexOutOfRangeError

# bytes of one block of centred training rows, and of its entries; sized to stay in cache
_BLOCK_BUDGET_BYTES = 256 * 1024
# bytes of one query block's rows [q - mu, ||q - mu||^2, 1] and its distances to the
# c feature rows; training forms V through these blocks beside its one N x (r+1)
# buffer, so they set its peak memory (the solve adds only N-vectors to that buffer);
# decision_values uses the same blocks, and at 256 KiB its throughput fell 8%
_SUMS_BUDGET_BYTES = 384 * 1024


@dataclass(frozen=True)
class KernelParams:
    """RBF decay rate; gamma must be negative."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma >= 0:
            raise ValueError(f"gamma must be a finite negative value, got {self.gamma}")


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


def _sq_norms(xc):
    """Squared norms of centred rows, by one fixed-order loop whichever block a row is in."""
    return np.einsum("ij,ij->i", xc, xc)


def _blocks(x, mu, width=0):
    """Blocks of the rows of x centred on mu, for entries against ``width`` columns.

    A block's centred rows, and its entries, each fit ``_BLOCK_BUDGET_BYTES``.
    Yields (first row, centred rows); one C-ordered buffer serves every block.
    """
    n, p = x.shape
    rows = max(1, _BLOCK_BUDGET_BYTES // (8 * max(p, width, 1)))
    buf = np.empty((min(rows, n), p))
    for i in range(0, n, rows):
        yield i, np.subtract(x[i:i + rows], mu, out=buf[:min(rows, n - i)])


def _sq_dists(a, a_sq, b, b_sq, out):
    """(a_sq_i + b_sq_j) - 2 <a_i, b_j> into out, for centred rows and their ``_sq_norms``.

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


def _sums_operand(features):
    """The feature side of ``_rbf_sums``: mu = mean(features) and the c x (p+2) operand F.

    Row j of F is [-2 (f_j - mu), 1, ||f_j - mu||^2]; the -2 scaling is exact.
    """
    mu = features.mean(axis=0)
    p = features.shape[1]
    operand = np.empty((features.shape[0], p + 2))
    f = np.subtract(features, mu, out=operand[:, :p])
    np.einsum("ij,ij->i", f, f, out=operand[:, p + 1])
    f *= -2.0
    operand[:, p] = 1.0
    return mu, operand


def _rbf_sums(x, operand, weights, gamma, out=None):
    """sum_j weights[j] * exp(gamma * ||x_i - f_j||^2) for every row x_i of x.

    ``operand`` is ``_sums_operand(features)`` for the c feature rows f_j.
    ``weights`` has shape (c,) or (c, r); the result has shape (N,) or (N, r),
    one column per column of weights, and is written into ``out`` when given
    (a view into a wider buffer will do). Each block of query rows, sized by
    ``_SUMS_BUDGET_BYTES``, is written as [q - mu, ||q - mu||^2, 1] into one
    rows x (p+2) buffer, and one matrix product with the operand gives every
    ||q - f||^2 of the block, norms included. Centring both sides on
    mu = mean(features) leaves every distance unchanged and keeps the
    expansion's three terms small, so they cancel with little loss. The clamp
    at 0 removes the negative distances that rounding can leave between a
    query and a feature row equal to it. One query buffer and one distance
    buffer serve every block, and each block's sums are written into the
    result in place. Query blocks have a fixed row count for a given (p, c),
    so repeated calls on the same rows give the same bits.
    """
    mu, f = operand
    n, p = x.shape
    if out is None:
        out = np.empty((n, *weights.shape[1:]))
    rows = max(1, _SUMS_BUDGET_BYTES // (8 * (f.shape[1] + f.shape[0])))
    q_buf = np.empty((min(rows, n), p + 2))
    q_buf[:, p + 1] = 1.0
    d2_buf = np.empty((min(rows, n), f.shape[0]))
    for i in range(0, n, rows):
        block = q_buf[:min(rows, n - i)]
        q = np.subtract(x[i:i + rows], mu, out=block[:, :p])
        np.einsum("ij,ij->i", q, q, out=block[:, p])
        d2 = np.matmul(block, f.T, out=d2_buf[:block.shape[0]])
        _rbf_in_place(d2, gamma)
        np.matmul(d2, weights, out=out[i:i + rows])
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


def _check_subset(m, n):
    """m as a non-empty 1-D array of distinct indices into n samples."""
    m = np.asarray(m, dtype=int)
    if m.ndim != 1 or m.shape[0] == 0:
        raise ValueError("M must be a non-empty 1-D index list")
    if np.any(m < 0) or np.any(m >= n):
        raise IndexOutOfRangeError(f"subset indices must lie in [0, {n})")
    ordered = np.sort(m)
    if np.any(ordered[1:] == ordered[:-1]):
        raise DuplicateIndexError("subset indices must be distinct")
    return m


def build_kernel_matrix(X, y, params):
    """Assemble the full label-weighted kernel matrix as a read-only N-by-N array.

    The matrix is its N kernel columns, from the one routine that also
    serves :func:`kernel_columns` and :func:`kernel_rows`, so it is exactly
    symmetric, and its diagonal is exactly 1 since k(x, x) = 1 and y_i^2 = 1.
    """
    x, y = _check_samples(X, y)
    psi = _columns(x, y, params.gamma, np.arange(x.shape[0]))
    psi.flags.writeable = False
    return psi


def _columns(x, y, gamma, m, x_sq=None):
    """Columns m of Q for checked inputs; x_sq, when given, holds every row's ``_sq_norms``."""
    n = x.shape[0]
    mu = x[:1]
    b = np.take(x, m, axis=0, out=np.empty((m.shape[0], x.shape[1])))
    b = np.subtract(b, mu, out=b)
    b_sq = _sq_norms(b)
    cols = np.empty((n, m.shape[0]))
    for start, a in _blocks(x, mu, m.shape[0]):
        stop = start + a.shape[0]
        a_sq = _sq_norms(a) if x_sq is None else x_sq[start:stop]
        _sq_dists(a, a_sq, b, b_sq, cols[start:stop])
    _rbf_in_place(cols, gamma)
    cols *= y[:, None]
    cols *= y[m][None, :]
    # entries on the sampled diagonal are k(x, x) = 1 exactly
    cols[m, np.arange(m.shape[0])] = 1.0
    return cols


def kernel_columns(X, y, params, M):
    """Columns M of the full kernel matrix, without N-by-N storage.

    Column j of the result equals column M[j] of
    ``build_kernel_matrix(X, y, params)`` exactly.
    """
    x, y = _check_samples(X, y)
    return _columns(x, y, params.gamma, _check_subset(M, x.shape[0]))


def kernel_rows(X, y, params):
    """A row source for one run: ``row(t)`` returns row t of the full kernel matrix.

    The inputs are checked and the N centred squared norms computed once,
    here; each call then re-centres the rows block by block, without an
    N-by-p copy, and returns a new array equal to row t of
    ``build_kernel_matrix(X, y, params)`` exactly.
    """
    x, y = _check_samples(X, y)
    n = x.shape[0]
    x_sq = np.concatenate([_sq_norms(a) for _, a in _blocks(x, x[:1])])

    def row(t):
        if not 0 <= t < n:
            raise IndexOutOfRangeError(f"row index must lie in [0, {n}), got {t}")
        return _columns(x, y, params.gamma, np.array([t]), x_sq)[:, 0]

    return row
