"""Unit tests for the Jakes spectral correlation model (Eq. 3-4, Eq. 22)."""

import numpy as np
import pytest
from scipy.special import j0

from repro.channels import SpectralCorrelationModel
from repro.channels.spectral import spectral_covariance_components
from repro.exceptions import DimensionError, SpecificationError


class TestSpectralCovarianceComponents:
    @pytest.fixture()
    def paper_inputs(self):
        freqs = 900e6 + 200e3 * np.array([2.0, 1.0, 0.0])
        delays = np.array([[0, 1e-3, 4e-3], [1e-3, 0, 3e-3], [4e-3, 3e-3, 0]])
        return np.ones(3), 50.0, delays, freqs, 1e-6

    def test_shapes(self, paper_inputs):
        rxx, ryy, rxy, ryx = spectral_covariance_components(*paper_inputs)
        assert rxx.shape == ryy.shape == rxy.shape == ryx.shape == (3, 3)

    def test_zero_diagonals(self, paper_inputs):
        rxx, _, rxy, _ = spectral_covariance_components(*paper_inputs)
        assert np.allclose(np.diag(rxx), 0.0)
        assert np.allclose(np.diag(rxy), 0.0)

    def test_rxx_symmetric_rxy_antisymmetric(self, paper_inputs):
        rxx, _, rxy, ryx = spectral_covariance_components(*paper_inputs)
        assert np.allclose(rxx, rxx.T)
        assert np.allclose(rxy, -rxy.T)
        assert np.allclose(ryx, -rxy)

    def test_matches_eq22_values(self, paper_inputs):
        rxx, ryy, rxy, ryx = spectral_covariance_components(*paper_inputs)
        # Entry (1,2): 2*Rxx = 0.3782, -(Rxy - Ryx) = 0.4753
        assert 2 * rxx[0, 1] == pytest.approx(0.3782, abs=5e-4)
        assert -(rxy[0, 1] - ryx[0, 1]) == pytest.approx(0.4753, abs=5e-4)
        # Entry (2,3)
        assert 2 * rxx[1, 2] == pytest.approx(0.3063, abs=5e-4)
        # Entry (1,3)
        assert 2 * rxx[0, 2] == pytest.approx(0.0878, abs=5e-4)

    def test_unequal_powers_use_geometric_mean(self):
        powers = np.array([1.0, 4.0])
        freqs = np.array([900e6, 900.2e6])
        delays = np.zeros((2, 2))
        rxx, *_ = spectral_covariance_components(powers, 50.0, delays, freqs, 1e-6)
        rxx_unit, *_ = spectral_covariance_components(
            np.ones(2), 50.0, delays, freqs, 1e-6
        )
        assert rxx[0, 1] == pytest.approx(2.0 * rxx_unit[0, 1])

    @staticmethod
    def _pair(tau, df):
        """Components of two unit-power branches ``df`` apart, ``tau`` s apart."""
        delays = np.array([[0.0, tau], [tau, 0.0]])
        return spectral_covariance_components(
            np.ones(2), 50.0, delays, np.array([900e6 + df, 900e6]), 1e-6
        )

    def test_eq3_formula(self):
        fm, tau, df, st = 50.0, 1e-3, 200e3, 1e-6
        rxx, _, rxy, _ = self._pair(tau, df)
        dws = 2 * np.pi * df * st
        expected_rxx = j0(2 * np.pi * fm * tau) / (2 * (1 + dws**2))
        assert rxx[0, 1] == pytest.approx(expected_rxx)
        assert rxy[0, 1] == pytest.approx(-dws * expected_rxx)

    def test_sign_flips_with_frequency_order(self):
        _, _, rxy_pos, _ = self._pair(1e-3, 200e3)
        _, _, rxy_neg, _ = self._pair(1e-3, -200e3)
        assert rxy_pos[0, 1] == pytest.approx(-rxy_neg[0, 1])

    def test_larger_separation_reduces_correlation(self):
        rxx_near, *_ = self._pair(0.0, 100e3)
        rxx_far, *_ = self._pair(0.0, 800e3)
        assert abs(rxx_far[0, 1]) < abs(rxx_near[0, 1])

    def test_invalid_power(self):
        with pytest.raises(SpecificationError):
            spectral_covariance_components(
                np.array([1.0, 0.0]), 50.0, np.zeros((2, 2)), np.array([1e9, 2e9]), 1e-6
            )

    def test_asymmetric_delay_matrix_rejected(self):
        delays = np.array([[0.0, 1e-3], [2e-3, 0.0]])
        with pytest.raises(SpecificationError):
            spectral_covariance_components(
                np.ones(2), 50.0, delays, np.array([900e6, 900.2e6]), 1e-6
            )

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            spectral_covariance_components(
                np.ones(3), 50.0, np.zeros((2, 2)), np.array([1e9, 2e9, 3e9]), 1e-6
            )


class TestSpectralCorrelationModel:
    def test_n_branches(self):
        model = SpectralCorrelationModel(
            frequencies_hz=np.array([1e9, 1.0002e9]),
            delays_s=np.zeros((2, 2)),
            max_doppler_hz=10.0,
            rms_delay_spread_s=1e-6,
        )
        assert model.n_branches == 2

    def test_validation_of_shapes(self):
        with pytest.raises(DimensionError):
            SpectralCorrelationModel(
                frequencies_hz=np.array([1e9, 2e9]),
                delays_s=np.zeros((3, 3)),
                max_doppler_hz=10.0,
                rms_delay_spread_s=1e-6,
            )

    def test_negative_doppler_rejected(self):
        with pytest.raises(SpecificationError):
            SpectralCorrelationModel(
                frequencies_hz=np.array([1e9]),
                delays_s=np.zeros((1, 1)),
                max_doppler_hz=-1.0,
                rms_delay_spread_s=1e-6,
            )

    def test_negative_delay_spread_rejected(self):
        with pytest.raises(SpecificationError):
            SpectralCorrelationModel(
                frequencies_hz=np.array([1e9]),
                delays_s=np.zeros((1, 1)),
                max_doppler_hz=10.0,
                rms_delay_spread_s=-1e-6,
            )

    def test_components_delegate(self):
        model = SpectralCorrelationModel(
            frequencies_hz=np.array([1e9, 1.0002e9]),
            delays_s=np.full((2, 2), 1e-3) - np.eye(2) * 1e-3,
            max_doppler_hz=10.0,
            rms_delay_spread_s=1e-6,
        )
        rxx, ryy, rxy, ryx = model.covariance_components(np.ones(2))
        assert rxx.shape == (2, 2)
        assert rxx[0, 1] != 0.0
