"""Traceless map and Frobenius contraction."""
import numpy as np
import pytest

from mvflow.errors import DomainError
from mvflow.tensors import frobenius, traceless


def test_traceless_2d_example():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(traceless(A), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_traceless_1d_vanishes():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(50, 1, 1))
    np.testing.assert_allclose(traceless(A), 0.0, atol=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_traceless_contraction_identity(d):
    # T(A):T(A) = 2 T(A):A for 1000 random matrices
    rng = np.random.default_rng(13 + d)
    A = rng.normal(size=(1000, d, d))
    T = traceless(A)
    lhs = frobenius(T, T)
    rhs = 2.0 * frobenius(T, A)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, float(np.max(np.abs(lhs))))


def test_traceless_rejects_nonsquare():
    with pytest.raises(DomainError):
        traceless(np.zeros((2, 3)))
