import numpy as np
import pytest

from ridecloak import kernels


def test_paired_dots_equals_row_sums():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((37, 29))
    b = rng.standard_normal((37, 29))
    np.testing.assert_allclose(kernels.paired_dots(a, b), (a * b).sum(1), atol=1e-12)


def test_cross_dots_equals_matmul():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((13, 41))
    b = rng.standard_normal((7, 41))
    np.testing.assert_array_equal(kernels.cross_dots(a, b), a @ b.T)


def test_kernels_accept_strided_and_integer_inputs():
    rng = np.random.default_rng(2)
    a = rng.integers(-3, 4, (6, 10))
    b = np.asfortranarray(rng.standard_normal((10, 6)).T)
    np.testing.assert_allclose(kernels.paired_dots(a, b), (a * b).sum(1), atol=1e-12)
    np.testing.assert_allclose(kernels.cross_dots(a[::2], b), a[::2] @ b.T, atol=1e-12)


def test_shape_mismatch_raises():
    a = np.zeros((3, 4))
    with pytest.raises(ValueError, match="shape mismatch"):
        kernels.paired_dots(a, np.zeros((3, 5)))
    with pytest.raises(ValueError, match="shape mismatch"):
        kernels.paired_dots(a, np.zeros((1, 4)))  # einsum alone would broadcast this
    with pytest.raises(ValueError, match="length mismatch"):
        kernels.cross_dots(a, np.zeros((3, 5)))
