"""Seeded synthetic datasets for demos, tests and the benchmark harness."""

import numpy as np

from .data_io import Dataset
from .errors import InvalidCountError


def gaussian_blobs(n, p=2, separation=4.0, scale=1.0, seed=0):
    """Two isotropic Gaussian classes with means ``separation`` apart."""
    rng = np.random.default_rng(seed)
    n_neg = n // 2
    n_pos = n - n_neg
    offset = np.zeros(p)
    offset[0] = separation / 2.0
    x = np.vstack(
        [
            -offset + scale * rng.standard_normal((n_neg, p)),
            offset + scale * rng.standard_normal((n_pos, p)),
        ]
    )
    y = np.concatenate([np.full(n_neg, -1.0), np.full(n_pos, 1.0)])
    order = rng.permutation(n)
    return Dataset(x=x[order], y=y[order])


def xor_dataset():
    """The classic four-point pattern no linear separator can classify."""
    x = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return Dataset(x=x, y=y)


def mnist_like(n, p=64, latent=32, separation=1.5, seed=0):
    """Two high-dimensional classes with shared low-rank covariance structure.

    Samples live near a ``latent``-dimensional subspace with geometrically
    decaying factor scales, and class means differ along the leading factor
    direction. Pairwise squared distances are O(1), so the default kernel
    decay rate of -1 is a sensible setting. A small ambient noise floor
    keeps features from being exactly rank-deficient. The subspace needs
    ``p >= latent``.
    """
    if p < latent:
        raise InvalidCountError(f"p={p} features cannot hold a latent={latent} subspace")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((p, latent)))
    scales = 0.35 * 0.88 ** np.arange(latent)
    offset = (separation / 2.0) * basis[:, 0]

    n_neg = n // 2
    n_pos = n - n_neg
    z = rng.standard_normal((n, latent)) * scales
    x = z @ basis.T + 0.02 * rng.standard_normal((n, p))
    x[:n_neg] -= offset
    x[n_neg:] += offset
    y = np.concatenate([np.full(n_neg, -1.0), np.full(n_pos, 1.0)])
    order = rng.permutation(n)
    return Dataset(x=x[order], y=y[order])
