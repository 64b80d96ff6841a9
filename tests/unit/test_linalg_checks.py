"""Unit tests for repro.linalg.checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HERMITIAN_ATOL, HERMITIAN_RTOL
from repro.exceptions import DimensionError, NotHermitianError
from repro.linalg import (
    assert_hermitian,
    assert_square,
    hermitian_part,
    is_hermitian,
    is_positive_semidefinite,
    min_eigenvalue,
)
from repro.linalg.checks import all_close


class TestAssertSquare:
    def test_accepts_square(self):
        arr = assert_square(np.eye(3))
        assert arr.shape == (3, 3)

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            assert_square(np.ones(3))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            assert_square(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            assert_square(np.zeros((0, 0)))

    def test_rejects_3d(self):
        with pytest.raises(DimensionError):
            assert_square(np.ones((2, 2, 2)))


class TestIsHermitian:
    def test_real_symmetric_is_hermitian(self):
        assert is_hermitian(np.array([[2.0, 1.0], [1.0, 3.0]]))

    def test_complex_hermitian(self):
        assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))

    def test_complex_non_hermitian(self):
        assert not is_hermitian(np.array([[1.0, 1j], [1j, 2.0]]))

    def test_tiny_asymmetry_tolerated(self):
        matrix = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        assert is_hermitian(matrix)

    def test_assert_hermitian_raises_with_magnitude(self):
        with pytest.raises(NotHermitianError, match="not Hermitian"):
            assert_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_hermitian_part_symmetrizes(self):
        matrix = np.array([[1.0, 2.0], [0.0, 1.0]])
        sym = hermitian_part(matrix)
        assert is_hermitian(sym)
        assert sym[0, 1] == pytest.approx(1.0)


FLOAT_MAX = float(np.finfo(float).max)
# Values where the closeness expression has edges: signed zeros,
# subnormals, the float maximum (|a - b| and rtol * |b| overflow),
# infinities and NaN.
SPECIAL = (
    0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, 5e-324, -5e-324, 2.2e-308,
    FLOAT_MAX, -FLOAT_MAX, 1e308, np.inf, -np.inf, np.nan,
)
reals = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))
tolerances = st.one_of(
    st.sampled_from((0.0, 1e-12, 1e-8, 1e-5, 1.0, 1e300)),
    st.floats(min_value=0.0, max_value=FLOAT_MAX),
)


@st.composite
def arrays(draw, shape):
    size = int(np.prod(shape))
    real = np.array(draw(st.lists(reals, min_size=size, max_size=size)), dtype=float)
    if draw(st.booleans()):
        return real.reshape(shape)
    out = real.astype(complex)  # not real + 1j * imag: 1j * inf has a NaN real part
    out.imag = draw(st.lists(reals, min_size=size, max_size=size))
    return out.reshape(shape)


@st.composite
def close_pairs(draw):
    """``(a, b)``: ``b`` is ``a`` nudged in place, or an unrelated array."""
    shape = draw(st.sampled_from(((1,), (4,), (2, 3), (3, 3))))
    a = draw(arrays(shape))
    if draw(st.booleans()):
        return a, draw(arrays(shape))
    b = a.copy()
    flat = b.reshape(-1)
    for index in draw(st.lists(st.integers(0, flat.size - 1), max_size=flat.size)):
        with np.errstate(over="ignore", invalid="ignore"):
            nudged = flat[index] * (1 + 1e-9)
        flat[index] = draw(st.sampled_from((nudged, 1e-13, np.inf, np.nan)))
    return a, b


@st.composite
def near_hermitian(draw):
    """A Hermitian matrix with a few entries overwritten by edge values."""
    n = draw(st.integers(1, 4))
    upper = np.triu(draw(arrays((n, n))))
    matrix = upper + np.triu(upper, 1).conj().T
    for row, col in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        matrix[row, col] = draw(reals)
    return matrix


class TestAllClose:
    @given(pair=close_pairs(), rtol=tolerances, atol=tolerances)
    @settings(max_examples=300, deadline=None)
    def test_equals_np_isclose_all(self, pair, rtol, atol):
        a, b = pair
        with np.errstate(over="ignore"):
            expected = bool(np.isclose(a, b, rtol=rtol, atol=atol).all())
            assert all_close(a, b, rtol=rtol, atol=atol) is expected

    @given(matrix=near_hermitian())
    @settings(max_examples=300, deadline=None)
    def test_is_hermitian_equals_np_allclose(self, matrix):
        with np.errstate(over="ignore"):
            expected = np.allclose(
                matrix, matrix.conj().T, rtol=HERMITIAN_RTOL, atol=HERMITIAN_ATOL
            )
            assert is_hermitian(matrix) is expected

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64])
    def test_integer_and_bool_inputs_match(self, dtype):
        info = np.iinfo(dtype) if dtype is not bool else None
        low = 0 if info is None else info.min
        matrix = np.array([[1, low], [low, 0]], dtype=dtype)
        assert is_hermitian(matrix) is np.allclose(matrix, matrix.T) is True
        b = np.array([1, 0], dtype=dtype)
        a = np.array([1, 1], dtype=dtype)
        assert all_close(a, b, rtol=1e-5, atol=1e-8) is bool(np.isclose(a, b).all())

    def test_nan_is_never_close_and_matching_infinities_are(self):
        assert not all_close(np.array([np.nan]), np.array([np.nan]), rtol=0.0, atol=0.0)
        assert all_close(np.array([np.inf]), np.array([np.inf]), rtol=0.0, atol=0.0)
        assert not all_close(np.array([1.0]), np.array([np.inf]), rtol=1.0, atol=1.0)


class TestDefiniteness:
    def test_identity_is_psd(self):
        assert is_positive_semidefinite(np.eye(4))

    def test_rank_deficient_is_psd(self):
        assert is_positive_semidefinite(np.ones((3, 3)))

    def test_indefinite_is_not_psd(self, indefinite_covariance):
        assert not is_positive_semidefinite(indefinite_covariance)

    def test_scaling_invariance(self, indefinite_covariance):
        assert not is_positive_semidefinite(indefinite_covariance * 1e8)
        assert is_positive_semidefinite(np.eye(3) * 1e-8)

    def test_min_eigenvalue_identity(self):
        assert min_eigenvalue(np.eye(3) * 2.0) == pytest.approx(2.0)

    def test_min_eigenvalue_indefinite_is_negative(self, indefinite_covariance):
        assert min_eigenvalue(indefinite_covariance) < 0

    def test_complex_hermitian_psd(self, eq22_covariance):
        assert is_positive_semidefinite(eq22_covariance)
