"""Unit tests for repro.core.statistics and one-call ``Simulator.envelopes``."""

import numpy as np
import pytest

from repro.api import Simulator
from repro.core import (
    CovarianceSpec,
    correlation_coefficient_matrix,
    covariance_match_report,
    envelope_power_report,
)
from repro.core.statistics import empirical_covariance
from repro.core.variance import (
    rayleigh_mean_from_gaussian_power,
    rayleigh_variance_from_gaussian_power,
)
from repro.channels import MIMOArrayScenario
from repro.engine import SimulationPlan
from repro.exceptions import DimensionError, GenerationError, SpecificationError
from repro.types import EnvelopeBlock, GaussianBlock


class TestTheoreticalValues:
    def test_mean_formula(self):
        mean = rayleigh_mean_from_gaussian_power(np.array([1.0]))[0]
        assert mean == pytest.approx(0.8862, abs=1e-4)

    def test_variance_formula(self):
        assert rayleigh_variance_from_gaussian_power(np.array([2.0]))[0] == pytest.approx(
            2.0 * 0.2146, abs=1e-3
        )


class TestCovarianceMatchReport:
    def test_perfect_match(self, eq22_covariance, rng):
        # Build samples with exactly the right second moment by coloring an
        # orthonormalized white block.
        from repro.core.coloring import coloring_matrix_eigen

        n = 200_000
        white = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        # Whiten exactly, then color exactly.
        cov = white @ white.conj().T / n
        whitened = np.linalg.inv(np.linalg.cholesky(cov)) @ white
        samples = coloring_matrix_eigen(eq22_covariance) @ whitened
        report = covariance_match_report(samples, eq22_covariance)
        assert report.relative_error < 1e-10
        assert report.relative_error <= 0.01

    def test_mismatch_detected(self, eq22_covariance, rng):
        samples = rng.normal(size=(3, 10_000)) + 1j * rng.normal(size=(3, 10_000))
        samples *= 3.0  # power 18, far from 1
        report = covariance_match_report(samples, eq22_covariance)
        assert report.relative_error > 0.5

    def test_summary_mentions_sample_count(self, eq22_covariance, rng):
        samples = rng.normal(size=(3, 128)) + 1j * rng.normal(size=(3, 128))
        assert "128" in covariance_match_report(samples, eq22_covariance).summary()

    def test_shape_mismatch_rejected(self, eq22_covariance, rng):
        samples = rng.normal(size=(2, 100)) + 1j * rng.normal(size=(2, 100))
        with pytest.raises(DimensionError):
            covariance_match_report(samples, eq22_covariance)

    def test_empirical_covariance_hermitian(self, rng):
        samples = rng.normal(size=(3, 500)) + 1j * rng.normal(size=(3, 500))
        cov = empirical_covariance(samples)
        assert np.allclose(cov, cov.conj().T)


class TestEnvelopePowerReport:
    def test_matched_rayleigh_samples(self, rng):
        sigma_g2 = np.array([1.0, 4.0])
        n = 300_000
        samples = np.vstack(
            [
                np.abs(
                    np.sqrt(s / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))
                )
                for s in sigma_g2
            ]
        )
        report = envelope_power_report(samples, sigma_g2)
        assert report.max_relative_power_error() < 0.02
        assert report.max_relative_mean_error() < 0.02
        assert "max relative" in report.summary()

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionError):
            envelope_power_report(rng.normal(size=(2, 100)), np.ones(3))

    def test_1d_input_promoted(self, rng):
        report = envelope_power_report(np.abs(rng.normal(size=1000)), np.array([1.0]))
        assert report.n_samples == 1000


class TestEnvelopesFromCovariance:
    def test_snapshot_mode_returns_envelope_block(self, eq22_covariance):
        block = Simulator().envelopes(eq22_covariance, 100, seed=0)
        assert isinstance(block, EnvelopeBlock)
        assert block.envelopes.shape == (3, 100)

    def test_gaussian_output_option(self, eq22_covariance):
        plan = SimulationPlan()
        plan.add(eq22_covariance, seed=0)
        block = Simulator().run(plan, 100).blocks[0]
        assert isinstance(block, GaussianBlock)

    def test_doppler_mode_length(self, eq22_covariance):
        block = Simulator().envelopes(eq22_covariance, 300, doppler=0.05, seed=0)
        assert block.envelopes.shape == (3, 300)

    def test_envelope_power_interpretation(self):
        covariance = np.diag([0.5, 1.0]).astype(complex)
        spec = CovarianceSpec.from_envelope_variances(
            np.real(np.diag(covariance)), correlation_coefficient_matrix(covariance)
        )
        block = Simulator().envelopes(spec, 200_000, seed=1)
        measured = np.var(block.envelopes, axis=1)
        assert np.allclose(measured, [0.5, 1.0], rtol=0.05)

    def test_accepts_spec_object(self, eq22_spec):
        block = Simulator().envelopes(eq22_spec, 10, seed=0)
        assert block.n_branches == 3

    def test_invalid_sample_count(self, eq22_covariance):
        with pytest.raises(GenerationError, match="n_samples"):
            Simulator().envelopes(eq22_covariance, 0, seed=0)


class TestEnvelopesFromScenario:
    def test_mimo_scenario_snapshot(self):
        scenario = MIMOArrayScenario(n_antennas=3, spacing_wavelengths=1.0)
        block = Simulator().envelopes(scenario.covariance_spec(np.ones(3)), 64, seed=0)
        assert block.envelopes.shape == (3, 64)

    def test_scenario_without_method_rejected(self):
        with pytest.raises(SpecificationError):
            Simulator().envelopes(object(), 64, seed=0)

    def test_explicit_doppler_overrides(self):
        scenario = MIMOArrayScenario(n_antennas=2, spacing_wavelengths=1.0)
        block = Simulator().envelopes(
            scenario.covariance_spec(np.ones(2)), 128, doppler=0.1, seed=0
        )
        assert block.envelopes.shape == (2, 128)
