"""Seeded synthetic datasets."""

import numpy as np
import pytest

from admmsvm.errors import InvalidCountError
from admmsvm.synthetic import mnist_like


def test_mnist_like_narrower_than_its_subspace_is_a_count_error():
    with pytest.raises(InvalidCountError, match=r"p=8\b.*latent=32\b"):
        mnist_like(200, p=8)


def test_mnist_like_as_wide_as_its_subspace():
    ds = mnist_like(10, p=4, latent=4, seed=1)
    assert ds.x.shape == (10, 4)
    assert np.all(np.isfinite(ds.x))
