"""Unit tests for the envelope-correlation <-> Gaussian-correlation mapping."""

import numpy as np
import pytest

from repro.core import (
    CovarianceSpec,
    RayleighFadingGenerator,
    envelope_correlation_approximation,
    envelope_correlation_from_gaussian,
    gaussian_correlation_from_envelope,
    gaussian_correlation_matrix_from_envelope,
)
from repro.exceptions import SpecificationError
from repro.validation import empirical_envelope_correlation


class TestForwardMap:
    def test_zero_correlation_maps_to_zero(self):
        assert envelope_correlation_from_gaussian(0.0) == pytest.approx(0.0)

    def test_full_correlation_maps_to_one(self):
        assert envelope_correlation_from_gaussian(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_monotonically_increasing(self):
        values = envelope_correlation_from_gaussian(np.linspace(0.0, 1.0, 50))
        assert np.all(np.diff(values) > 0)

    def test_close_to_square_approximation(self):
        magnitudes = np.linspace(0.0, 1.0, 21)
        exact = envelope_correlation_from_gaussian(magnitudes)
        approx = envelope_correlation_approximation(magnitudes)
        assert np.max(np.abs(exact - approx)) < 0.03

    def test_exact_is_below_approximation_in_the_interior(self):
        # The hypergeometric map lies slightly below |rho|^2 for 0 < |rho| < 1
        # (at |rho| = 0.5 the exact envelope correlation is ~0.233).
        assert envelope_correlation_from_gaussian(0.5) < 0.25
        assert envelope_correlation_from_gaussian(0.5) == pytest.approx(0.2326, abs=5e-4)

    def test_complex_input_uses_magnitude(self):
        assert envelope_correlation_from_gaussian(0.6j) == pytest.approx(
            float(envelope_correlation_from_gaussian(0.6))
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(SpecificationError):
            envelope_correlation_from_gaussian(1.5)

    def test_matches_monte_carlo(self):
        # Generate two correlated branches and compare the measured envelope
        # correlation with the exact map.
        rho = 0.7
        covariance = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
        generator = RayleighFadingGenerator(covariance, rng=0)
        envelopes = np.abs(generator.generate(400_000))
        measured = empirical_envelope_correlation(envelopes)[0, 1]
        predicted = float(envelope_correlation_from_gaussian(rho))
        assert measured == pytest.approx(predicted, abs=0.01)


class TestInverseMap:
    def test_round_trip_exact(self):
        for rho_g in (0.0, 0.2, 0.5, 0.8, 0.95):
            rho_r = float(envelope_correlation_from_gaussian(rho_g))
            recovered = float(gaussian_correlation_from_envelope(rho_r))
            assert recovered == pytest.approx(rho_g, abs=1e-6)

    def test_vector_input(self):
        result = gaussian_correlation_from_envelope(np.array([0.1, 0.4]))
        assert result.shape == (2,)
        assert np.all(np.diff(result) > 0)

    def test_rejects_one(self):
        with pytest.raises(SpecificationError):
            gaussian_correlation_from_envelope(1.0)


class TestMatrixConversion:
    def test_produces_unit_diagonal_symmetric_matrix(self):
        envelope_matrix = np.array(
            [[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]]
        )
        gaussian_matrix = gaussian_correlation_matrix_from_envelope(envelope_matrix)
        assert np.allclose(np.diag(gaussian_matrix), 1.0)
        assert np.allclose(gaussian_matrix, gaussian_matrix.T)
        assert np.all(gaussian_matrix >= 0)

    def test_end_to_end_with_covariance_spec(self):
        # Ask for envelope variances + envelope correlations, generate, and
        # confirm the measured envelope correlation matches the request.
        envelope_matrix = np.array([[1.0, 0.4], [0.4, 1.0]])
        gaussian_matrix = gaussian_correlation_matrix_from_envelope(envelope_matrix)
        spec = CovarianceSpec.from_envelope_variances(
            np.array([1.0, 1.0]), gaussian_matrix.astype(complex)
        )
        generator = RayleighFadingGenerator(spec, rng=1)
        envelopes = np.abs(generator.generate(400_000))
        measured = empirical_envelope_correlation(envelopes)[0, 1]
        assert measured == pytest.approx(0.4, abs=0.01)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(SpecificationError):
            gaussian_correlation_matrix_from_envelope(np.array([[2.0, 0.1], [0.1, 2.0]]))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(SpecificationError):
            gaussian_correlation_matrix_from_envelope(np.array([[1.0, 1.2], [1.2, 1.0]]))
