"""The matching hot kernels: inner products of stored ciphertext rows.

Every similarity the server computes is a sum of 8-part dot products of a
rider-role row, times the match mask, and a driver-role row as sent; both
shapes it needs are numpy reductions here, next to the integer gate that
tests them. Callers go through the module attribute
(kernels.cross_dots(...)) so that a tracer can wrap the functions by name.
"""

from __future__ import annotations

import numpy as np

# Half the spacing of the integer targets: absorbs the numeric noise of
# the encryption round trip.
INTEGER_TOL = 0.5


def paired_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products: out[i] = a[i] . b[i].

    a and b must both be (n, length) float64 arrays.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.einsum("ij,ij->i", a, b)


def cross_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs dot products: out[i, j] = a[i] . b[j].

    a is (na, length), b is (nb, length); result is (na, nb).
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"length mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a @ b.T


def hits(values: np.ndarray, target: float) -> np.ndarray:
    """Which similarities equal the integer `target`, within INTEGER_TOL."""
    return np.abs(values - target) < INTEGER_TOL
