import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def complex_matrix(h):
    """The complex (..., 2, 2) Hermitian matrices whose components
    (h11, h22, Re h12, Im h12) lie along the first axis of h."""
    m = np.zeros(h.shape[1:] + (2, 2), dtype=complex)
    m[..., 0, 0] = h[0]
    m[..., 1, 1] = h[1]
    m[..., 0, 1] = h[2] + 1j * h[3]
    m[..., 1, 0] = h[2] - 1j * h[3]
    return m
