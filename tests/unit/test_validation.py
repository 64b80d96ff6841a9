"""Unit tests for the repro.validation package."""

import numpy as np
import pytest

from repro.core import RayleighFadingGenerator, RealTimeRayleighGenerator
from repro.exceptions import DimensionError
from repro.random import complex_gaussian
from repro.validation import (
    branch_powers,
    check_autocorrelation,
    check_covariance,
    check_envelope_powers,
    check_rayleigh_fit,
    empirical_correlation_coefficients,
    empirical_envelope_correlation,
    max_absolute_error,
    rayleigh_ks_test,
    relative_frobenius_error,
    validate_block,
)


class TestMetrics:
    def test_relative_frobenius_error_zero_for_match(self, eq22_covariance):
        assert relative_frobenius_error(eq22_covariance, eq22_covariance) == 0.0

    def test_relative_frobenius_error_scaling(self, eq22_covariance):
        assert relative_frobenius_error(2 * eq22_covariance, eq22_covariance) == pytest.approx(1.0)

    def test_relative_error_zero_target(self):
        assert relative_frobenius_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        assert relative_frobenius_error(np.eye(2), np.zeros((2, 2))) == float("inf")

    def test_max_absolute_error(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0, 2.5], [3.0, 4.0]])
        assert max_absolute_error(a, b) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_frobenius_error(np.eye(2), np.eye(3))


class TestEmpiricalEstimators:
    def test_branch_powers(self, rng):
        samples = 2.0 * (rng.normal(size=(2, 100_000)) + 1j * rng.normal(size=(2, 100_000)))
        assert np.allclose(branch_powers(samples), 8.0, rtol=0.03)

    def test_correlation_coefficients_unit_diagonal(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=0)
        rho = empirical_correlation_coefficients(generator.generate(100_000))
        assert np.allclose(np.diag(rho).real, 1.0, atol=1e-10)
        assert abs(rho[0, 1] - eq22_covariance[0, 1]) < 0.03

    def test_envelope_correlation_approximates_squared_gaussian_correlation(self):
        covariance = np.array([[1.0, 0.8], [0.8, 1.0]], dtype=complex)
        generator = RayleighFadingGenerator(covariance, rng=1)
        envelopes = np.abs(generator.generate(400_000))
        rho_env = empirical_envelope_correlation(envelopes)[0, 1]
        assert rho_env == pytest.approx(0.64, abs=0.04)

    def test_envelope_correlation_requires_two_samples(self):
        with pytest.raises(DimensionError):
            empirical_envelope_correlation(np.ones((2, 1)))


class TestKolmogorovSmirnovTests:
    def test_rayleigh_fit_accepts_true_rayleigh(self):
        samples = np.abs(complex_gaussian(50_000, variance=2.0, rng=0))
        result = rayleigh_ks_test(samples, gaussian_variance=2.0)
        assert result.passed
        assert result.statistic < 0.01

    def test_rayleigh_fit_rejects_wrong_scale(self):
        samples = np.abs(complex_gaussian(50_000, variance=2.0, rng=1))
        result = rayleigh_ks_test(samples, gaussian_variance=8.0)
        assert not result.passed
        assert result.statistic > 0.2

    def test_rayleigh_fit_rejects_gaussian_magnitudes(self, rng):
        samples = np.abs(rng.normal(size=50_000))  # half-normal, not Rayleigh
        result = rayleigh_ks_test(samples, gaussian_variance=1.0)
        assert not result.passed

    def test_rayleigh_test_input_validation(self):
        with pytest.raises(DimensionError):
            rayleigh_ks_test(np.ones(4), gaussian_variance=1.0)
        with pytest.raises(ValueError):
            rayleigh_ks_test(np.ones(100), gaussian_variance=0.0)


class TestChecks:
    def test_check_covariance_pass_and_fail(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=3)
        samples = generator.generate(200_000)
        assert check_covariance(samples, eq22_covariance, tolerance=0.05).passed
        assert not check_covariance(samples, 5 * eq22_covariance, tolerance=0.05).passed

    def test_check_envelope_powers(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=4)
        envelopes = np.abs(generator.generate(200_000))
        assert check_envelope_powers(envelopes, np.ones(3), tolerance=0.05).passed
        assert not check_envelope_powers(envelopes, np.full(3, 4.0), tolerance=0.05).passed

    def test_check_rayleigh_fit(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=5)
        envelopes = np.abs(generator.generate(100_000))
        result = check_rayleigh_fit(envelopes, np.ones(3))
        assert result.passed
        assert len(result.details) == 3

    def test_check_autocorrelation_pass_for_doppler_shaped(self):
        covariance = np.eye(2, dtype=complex)
        generator = RealTimeRayleighGenerator(
            covariance, normalized_doppler=0.05, n_points=4096, rng=6
        )
        samples = generator.generate(2)
        assert check_autocorrelation(samples[:, :4096], 0.05).passed

    def test_check_autocorrelation_fails_for_white_samples(self, rng):
        samples = rng.normal(size=(2, 8192)) + 1j * rng.normal(size=(2, 8192))
        assert not check_autocorrelation(samples, 0.05).passed

    def test_check_result_row_rendering(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=7)
        check = check_covariance(generator.generate(10_000), eq22_covariance)
        assert "covariance" in check.row()
        assert ("PASS" in check.row()) or ("FAIL" in check.row())


class TestValidateBlock:
    def test_snapshot_block_passes(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=8)
        block = generator.generate_gaussian(150_000)
        report = validate_block(block, eq22_covariance, covariance_tolerance=0.05)
        assert report.passed
        assert len(report.checks) == 3  # no autocorrelation check without Doppler
        assert "overall: PASS" in report.render()

    def test_realtime_block_includes_autocorrelation_check(self, eq23_covariance):
        generator = RealTimeRayleighGenerator(
            eq23_covariance, normalized_doppler=0.05, n_points=4096, rng=9
        )
        block = generator.generate_gaussian(4)
        report = validate_block(block, eq23_covariance, normalized_doppler=0.05)
        assert len(report.checks) == 4
        assert report.passed

    def test_wrong_target_fails(self, eq22_covariance):
        generator = RayleighFadingGenerator(eq22_covariance, rng=10)
        block = generator.generate_gaussian(50_000)
        report = validate_block(block, np.eye(3) * 9.0)
        assert not report.passed
        assert "FAIL" in report.render()
