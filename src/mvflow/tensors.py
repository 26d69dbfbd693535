"""Small tensor algebra used by the Korn-Poincare check.

Matrices are numpy arrays whose LAST two axes are the tensor indices, so a
field of d x d matrices over a grid has shape (..., d, d) and every routine
broadcasts over the leading axes.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError


def _dim(A: np.ndarray) -> int:
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DomainError(f"expected square matrices on the last two axes, got {A.shape}")
    return A.shape[-1]


def trace(A: np.ndarray) -> np.ndarray:
    return np.trace(np.asarray(A, dtype=float), axis1=-2, axis2=-1)


def traceless(A: np.ndarray) -> np.ndarray:
    """A + A^T - (2/d) tr(A) I.

    Symmetrizes and removes the trace; in d = 1 this is identically zero,
    which is why the trace part carries all the viscous dissipation there.
    Satisfies T(A):T(A) = 2 T(A):A.
    """
    A = np.asarray(A, dtype=float)
    d = _dim(A)
    eye = np.eye(d)
    tr = trace(A)
    return A + np.swapaxes(A, -1, -2) - (2.0 / d) * tr[..., None, None] * eye


def frobenius(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Componentwise contraction A:B summed over the matrix axes."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.sum(A * B, axis=(-2, -1))

