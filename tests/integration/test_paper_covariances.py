"""Integration tests: the physical models reproduce Eq. (22) and Eq. (23) and the
generators realize those covariance matrices statistically."""

import numpy as np
import pytest

from repro import (
    DopplerSpec,
    MIMOArrayScenario,
    RayleighFadingGenerator,
    Simulator,
    covariance_match_report,
    envelope_power_report,
)
from repro.experiments import paper_values as pv


class TestEq22EndToEnd:
    @pytest.fixture(scope="class")
    def spec(self):
        return pv.paper_ofdm_scenario().covariance_spec(np.ones(3))

    def test_model_reproduces_published_matrix(self, spec):
        assert np.allclose(spec.matrix, pv.EQ22_COVARIANCE, atol=5e-4)

    def test_matrix_is_positive_definite_as_stated(self, spec):
        assert np.min(np.linalg.eigvalsh(spec.matrix)) > 0

    def test_generator_realizes_matrix(self, spec):
        generator = RayleighFadingGenerator(spec, rng=101)
        samples = generator.generate(400_000)
        report = covariance_match_report(samples, spec.matrix)
        assert report.relative_error < 0.02

    def test_envelopes_have_unit_gaussian_power(self, spec):
        generator = RayleighFadingGenerator(spec, rng=102)
        envelopes = np.abs(generator.generate(300_000))
        report = envelope_power_report(envelopes, spec.gaussian_variances)
        assert report.max_relative_power_error() < 0.02


class TestEq23EndToEnd:
    @pytest.fixture(scope="class")
    def spec(self):
        return pv.paper_mimo_scenario().covariance_spec(np.ones(3))

    def test_model_reproduces_published_matrix(self, spec):
        assert np.allclose(spec.matrix, pv.EQ23_COVARIANCE, atol=2e-4)

    def test_matrix_is_real_as_stated(self, spec):
        assert np.max(np.abs(np.imag(spec.matrix))) < 1e-12

    def test_generator_realizes_matrix(self, spec):
        generator = RayleighFadingGenerator(spec, rng=103)
        samples = generator.generate(400_000)
        report = covariance_match_report(samples, spec.matrix)
        assert report.relative_error < 0.02

    def test_adjacent_antennas_more_correlated_than_outer_pair(self, spec):
        generator = RayleighFadingGenerator(spec, rng=104)
        samples = generator.generate(200_000)
        achieved = samples @ samples.conj().T / samples.shape[1]
        assert abs(achieved[0, 1]) > abs(achieved[0, 2])


class TestScenarioRoundTrip:
    def test_scenario_objects_used_directly_by_pipeline(self):
        scenario = MIMOArrayScenario(n_antennas=3, spacing_wavelengths=1.0)
        block = Simulator().envelopes(
            scenario.covariance_spec(np.ones(3)), 50_000, seed=105
        )
        measured_power = np.mean(block.envelopes**2, axis=1)
        assert np.allclose(measured_power, 1.0, atol=0.05)

    def test_ofdm_scenario_doppler_defaults_into_pipeline(self):
        scenario = pv.paper_ofdm_scenario(n_points=1024)
        block = Simulator().envelopes(
            scenario.covariance_spec(np.ones(3)),
            1024,
            seed=106,
            doppler=DopplerSpec(
                scenario.doppler.normalized_doppler, n_points=scenario.doppler.n_points
            ),
        )
        # Doppler shaping makes neighbouring samples strongly correlated.
        branch = block.envelopes[0]
        neighbour_correlation = np.corrcoef(branch[:-1], branch[1:])[0, 1]
        assert neighbour_correlation > 0.9
