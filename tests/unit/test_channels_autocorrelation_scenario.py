"""Unit tests for repro.channels.autocorrelation and repro.channels.scenario."""

import numpy as np
import pytest
from scipy.special import j0

from repro.channels import (
    DopplerSettings,
    MIMOArrayScenario,
    OFDMScenario,
    clarke_autocorrelation,
)
from repro.channels.autocorrelation import autocorrelation_error
from repro.core.covariance import CovarianceSpec
from repro.exceptions import DimensionError, DopplerError, SpecificationError


class TestClarkeAutocorrelation:
    def test_lag_zero_is_one(self):
        assert clarke_autocorrelation(np.array([0]), 0.05)[0] == pytest.approx(1.0)

    def test_matches_bessel(self):
        lags = np.arange(20)
        assert np.allclose(
            clarke_autocorrelation(lags, 0.1), j0(2 * np.pi * 0.1 * lags)
        )

    def test_zero_doppler_is_constant_one(self):
        assert np.allclose(clarke_autocorrelation(np.arange(10), 0.0), 1.0)

    def test_negative_doppler_rejected(self):
        with pytest.raises(DopplerError):
            clarke_autocorrelation(np.arange(3), -0.1)

    def test_error_of_exact_reference_is_zero(self):
        lags = np.arange(30)
        reference = clarke_autocorrelation(lags, 0.05)
        rms, peak = autocorrelation_error(reference, 0.05)
        assert rms == pytest.approx(0.0, abs=1e-12)
        assert peak == pytest.approx(0.0, abs=1e-12)

    def test_error_of_white_sequence_is_large(self):
        empirical = np.zeros(40)
        empirical[0] = 1.0
        rms, peak = autocorrelation_error(empirical, 0.05)
        assert rms > 0.3

    def test_error_rejects_empty(self):
        with pytest.raises(ValueError):
            autocorrelation_error(np.array([]), 0.05)


class TestDopplerSettings:
    def test_normalized_doppler(self):
        settings = DopplerSettings(sampling_frequency_hz=1000.0, max_doppler_hz=50.0)
        assert settings.normalized_doppler == pytest.approx(0.05)

    def test_invalid_values(self):
        with pytest.raises(SpecificationError):
            DopplerSettings(sampling_frequency_hz=0.0, max_doppler_hz=50.0)
        with pytest.raises(SpecificationError):
            DopplerSettings(sampling_frequency_hz=1000.0, max_doppler_hz=-1.0)
        with pytest.raises(SpecificationError):
            DopplerSettings(sampling_frequency_hz=1000.0, max_doppler_hz=50.0, n_points=4)


@pytest.fixture()
def paper_doppler():
    return DopplerSettings(sampling_frequency_hz=1000.0, max_doppler_hz=50.0)


class TestOFDMScenario:
    def test_covariance_spec_matches_eq22(self, paper_doppler, eq22_covariance):
        scenario = OFDMScenario(
            carrier_frequencies_hz=900e6 + 200e3 * np.array([2.0, 1.0, 0.0]),
            delays_s=np.array([[0, 1e-3, 4e-3], [1e-3, 0, 3e-3], [4e-3, 3e-3, 0]]),
            rms_delay_spread_s=1e-6,
            doppler=paper_doppler,
        )
        spec = scenario.covariance_spec(np.ones(3))
        assert isinstance(spec, CovarianceSpec)
        assert np.allclose(spec.matrix, eq22_covariance, atol=5e-4)

    def test_arrival_time_vector_accepted(self, paper_doppler):
        scenario = OFDMScenario(
            carrier_frequencies_hz=np.array([1e9, 1.0002e9]),
            delays_s=np.array([0.0, 2e-3]),
            rms_delay_spread_s=1e-6,
            doppler=paper_doppler,
        )
        assert scenario.delays_s[0, 1] == pytest.approx(2e-3)
        assert scenario.delays_s[1, 0] == pytest.approx(2e-3)

    def test_wrong_power_shape_rejected(self, paper_doppler):
        scenario = OFDMScenario(
            carrier_frequencies_hz=np.array([1e9, 1.0002e9]),
            delays_s=np.zeros((2, 2)),
            rms_delay_spread_s=1e-6,
            doppler=paper_doppler,
        )
        with pytest.raises(DimensionError):
            scenario.covariance_spec(np.ones(3))

    def test_negative_frequency_rejected(self, paper_doppler):
        with pytest.raises(SpecificationError):
            OFDMScenario(
                carrier_frequencies_hz=np.array([-1e9]),
                delays_s=np.zeros((1, 1)),
                rms_delay_spread_s=1e-6,
                doppler=paper_doppler,
            )


class TestMIMOArrayScenario:
    def test_covariance_spec_matches_eq23(self, eq23_covariance):
        scenario = MIMOArrayScenario(
            n_antennas=3, spacing_wavelengths=1.0,
            mean_angle_rad=0.0, angular_spread_rad=np.pi / 18,
        )
        spec = scenario.covariance_spec(np.ones(3))
        assert np.allclose(spec.matrix, eq23_covariance, atol=2e-4)

    def test_metadata_records_scenario(self):
        scenario = MIMOArrayScenario(n_antennas=2, spacing_wavelengths=0.5)
        spec = scenario.covariance_spec(np.ones(2))
        assert spec.metadata["scenario"] == "mimo-spatial"

    def test_invalid_array_rejected(self):
        with pytest.raises(SpecificationError):
            MIMOArrayScenario(n_antennas=2, spacing_wavelengths=0.5, angular_spread_rad=0.0)
