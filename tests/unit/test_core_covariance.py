"""Unit tests for covariance assembly (Eq. 12-13) and CovarianceSpec."""

import numpy as np
import pytest

from repro.core import (
    CovarianceSpec,
    build_covariance_matrix,
    correlation_coefficient_matrix,
)
from repro.core.covariance import covariance_entry, decompose_covariance_entry
from repro.engine import SimulationPlan
from repro.exceptions import CovarianceError, DimensionError, NotHermitianError, PowerError


class TestCovarianceEntry:
    def test_eq13_formula(self):
        entry = covariance_entry(rxx=0.2, ryy=0.2, rxy=-0.1, ryx=0.1)
        assert entry == pytest.approx(0.4 + 0.2j)

    def test_decompose_round_trip(self):
        entry = 0.35 - 0.18j
        rxx, ryy, rxy, ryx = decompose_covariance_entry(entry)
        assert covariance_entry(rxx, ryy, rxy, ryx) == pytest.approx(entry)
        assert rxx == ryy
        assert rxy == -ryx

    def test_real_entry_has_zero_cross_terms(self):
        _, _, rxy, ryx = decompose_covariance_entry(0.8)
        assert rxy == 0.0 and ryx == 0.0


class TestBuildCovarianceMatrix:
    @pytest.fixture()
    def components(self):
        rxx = np.array([[0.0, 0.2], [0.2, 0.0]])
        rxy = np.array([[0.0, -0.1], [0.1, 0.0]])
        return rxx, rxx.copy(), rxy, -rxy

    def test_diagonal_carries_powers(self, components):
        matrix = build_covariance_matrix(np.array([1.0, 2.0]), *components)
        assert np.allclose(np.diag(matrix), [1.0, 2.0])

    def test_off_diagonal_from_eq13(self, components):
        matrix = build_covariance_matrix(np.array([1.0, 1.0]), *components)
        assert matrix[0, 1] == pytest.approx(0.4 + 0.2j)
        assert matrix[1, 0] == pytest.approx(0.4 - 0.2j)

    def test_result_is_hermitian(self, components):
        matrix = build_covariance_matrix(np.array([1.0, 1.0]), *components)
        assert np.allclose(matrix, matrix.conj().T)

    def test_inconsistent_components_rejected(self):
        rxx = np.array([[0.0, 0.2], [0.5, 0.0]])  # not symmetric
        zeros = np.zeros((2, 2))
        with pytest.raises(CovarianceError):
            build_covariance_matrix(np.ones(2), rxx, rxx, zeros, zeros)

    def test_negative_power_rejected(self, components):
        with pytest.raises(PowerError):
            build_covariance_matrix(np.array([1.0, -1.0]), *components)

    def test_shape_mismatch_rejected(self, components):
        with pytest.raises(DimensionError):
            build_covariance_matrix(np.ones(3), *components)


class TestCorrelationCoefficientMatrix:
    def test_unit_diagonal(self, eq22_covariance):
        rho = correlation_coefficient_matrix(eq22_covariance * 3.0)
        assert np.allclose(np.diag(rho), 1.0)

    def test_scale_invariant(self, eq22_covariance):
        assert np.allclose(
            correlation_coefficient_matrix(eq22_covariance),
            correlation_coefficient_matrix(eq22_covariance * 7.5),
        )

    def test_unequal_powers(self):
        matrix = np.array([[4.0, 2.0], [2.0, 1.0]], dtype=complex)
        rho = correlation_coefficient_matrix(matrix)
        assert rho[0, 1] == pytest.approx(1.0)

    def test_non_positive_diagonal_rejected(self):
        with pytest.raises(CovarianceError):
            correlation_coefficient_matrix(np.array([[0.0, 0.1], [0.1, 1.0]]))


class TestCovarianceSpec:
    def test_from_covariance_matrix_reads_diagonal(self, eq22_covariance):
        spec = CovarianceSpec.from_covariance_matrix(eq22_covariance)
        assert np.allclose(spec.gaussian_variances, 1.0)
        assert spec.n_branches == 3

    def test_from_components_matches_direct_build(self):
        rxx = np.array([[0.0, 0.3], [0.3, 0.0]])
        zeros = np.zeros((2, 2))
        spec = CovarianceSpec.from_components(np.array([1.0, 2.0]), rxx, rxx, zeros, zeros)
        assert spec.matrix[0, 1] == pytest.approx(0.6)
        assert spec.matrix[1, 1] == pytest.approx(2.0)

    def test_from_envelope_variances_applies_eq11(self):
        rho = np.eye(2, dtype=complex)
        rho[0, 1] = rho[1, 0] = 0.5
        spec = CovarianceSpec.from_envelope_variances(np.array([1.0, 1.0]), rho)
        expected_power = 1.0 / (1 - np.pi / 4)
        assert np.allclose(spec.gaussian_variances, expected_power)
        assert spec.envelope_variances is not None
        assert spec.matrix[0, 1] == pytest.approx(0.5 * expected_power)

    def test_from_envelope_variances_requires_unit_diagonal(self):
        bad_rho = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(CovarianceError):
            CovarianceSpec.from_envelope_variances(np.ones(2), bad_rho)

    def test_non_hermitian_matrix_rejected(self):
        matrix = np.array([[1.0, 0.5], [0.1, 1.0]], dtype=complex)
        with pytest.raises(CovarianceError):
            CovarianceSpec.from_covariance_matrix(matrix)

    def test_diagonal_variance_consistency_enforced(self, eq22_covariance):
        with pytest.raises(CovarianceError):
            CovarianceSpec(matrix=eq22_covariance, gaussian_variances=np.full(3, 2.0))

    def test_is_positive_semidefinite(self, eq22_covariance, indefinite_covariance):
        assert CovarianceSpec.from_covariance_matrix(eq22_covariance).is_positive_semidefinite()
        assert not CovarianceSpec.from_covariance_matrix(
            indefinite_covariance
        ).is_positive_semidefinite()

    def test_correlation_coefficients(self, eq23_covariance):
        spec = CovarianceSpec.from_covariance_matrix(eq23_covariance)
        rho = spec.correlation_coefficients()
        assert rho[0, 1] == pytest.approx(0.8123, abs=1e-4)

    def test_wrong_envelope_shape_rejected(self, eq22_covariance):
        with pytest.raises(DimensionError):
            CovarianceSpec(
                matrix=eq22_covariance,
                gaussian_variances=np.ones(3),
                envelope_variances=np.ones(2),
            )


K2 = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, 2.0]])
SKEWED = np.array([[1.0, 0.5], [0.1, 1.0]])
NOT_HERMITIAN = "covariance matrix is not Hermitian (max |K - K^H| element = {})"


class TestCovarianceAdmission:
    """Each admission check keeps its exception type and message."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: CovarianceSpec.from_covariance_matrix(np.ones(3)),
                DimensionError,
                "covariance matrix must be 2-D, got ndim=1",
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(np.ones((2, 2, 2))),
                DimensionError,
                "covariance matrix must be 2-D, got ndim=3",
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(np.ones((2, 3))),
                DimensionError,
                "covariance matrix must be square, got shape (2, 3)",
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(np.zeros((0, 0))),
                DimensionError,
                "covariance matrix must be non-empty",
            ),
            (
                lambda: SimulationPlan().add(np.ones(2)),
                DimensionError,
                "covariance matrix must be 2-D, got ndim=1",
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(SKEWED),
                NotHermitianError,
                NOT_HERMITIAN.format("4.000e-01"),
            ),
            (
                lambda: CovarianceSpec(matrix=SKEWED, gaussian_variances=np.ones(2)),
                NotHermitianError,
                NOT_HERMITIAN.format("4.000e-01"),
            ),
            (
                lambda: SimulationPlan().add(SKEWED),
                NotHermitianError,
                NOT_HERMITIAN.format("4.000e-01"),
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(
                    np.array([[1.0, np.nan], [np.nan, 1.0]])
                ),
                CovarianceError,
                "the covariance matrix has non-finite entries",
            ),
            (
                lambda: CovarianceSpec(matrix=K2, gaussian_variances=np.array([1.0, 2.5])),
                CovarianceError,
                "the diagonal of the covariance matrix must equal the gaussian variances",
            ),
            (
                lambda: CovarianceSpec(matrix=K2, gaussian_variances=np.ones(3)),
                DimensionError,
                "gaussian_variances must have shape (2,), got (3,)",
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(np.diag([-1.0, 1.0])),
                PowerError,
                "all gaussian variances must be positive",
            ),
            (
                lambda: CovarianceSpec.from_covariance_matrix(np.diag([0.0, 1.0])),
                PowerError,
                "all gaussian variances must be positive",
            ),
        ],
        ids=[
            "vector", "3-d", "rectangular", "empty", "plan-vector",
            "skewed", "skewed-direct", "plan-skewed", "nan",
            "diagonal-mismatch", "variance-shape", "negative-variance", "zero-variance",
        ],
    )
    def test_error_type_and_message(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, np.inf], [np.inf, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[1.0, 0.5], [0.5, np.nan]],
        ],
        ids=["off-diagonal", "diagonal", "imaginary", "nan", "nan-diagonal"],
    )
    def test_non_finite_entries_rejected(self, matrix):
        """Infinities are Hermitian by np.isclose's rule and NaN is not, yet
        both are refused for what they are: non-finite."""
        with pytest.raises(CovarianceError) as info:
            SimulationPlan().add(np.array(matrix, dtype=complex))
        assert type(info.value) is CovarianceError
        assert str(info.value) == "the covariance matrix has non-finite entries"

