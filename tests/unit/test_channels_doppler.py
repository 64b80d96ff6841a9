"""Unit tests for the Young-Beaulieu Doppler filter (Eq. 19, 21)."""

import numpy as np
import pytest
from scipy.special import j0

from repro.channels import (
    filter_autocorrelation,
    filter_output_variance,
    young_beaulieu_filter,
)
from repro.channels.doppler import validate_doppler_parameters
from repro.exceptions import DopplerError, FilterDesignError


class TestValidateDopplerParameters:
    def test_paper_parameters_km(self):
        # Section 6: M = 4096, fm = 0.05 -> km = 204.
        assert validate_doppler_parameters(4096, 0.05) == 204

    def test_doppler_out_of_range(self):
        with pytest.raises(DopplerError):
            validate_doppler_parameters(1024, 0.6)
        with pytest.raises(DopplerError):
            validate_doppler_parameters(1024, 0.0)

    def test_m_too_small(self):
        with pytest.raises(DopplerError):
            validate_doppler_parameters(4, 0.1)

    def test_passband_needs_at_least_one_bin(self):
        with pytest.raises(FilterDesignError):
            validate_doppler_parameters(64, 0.01)

    def test_km_uses_floor(self):
        # k_m = floor(f_m * M): 0.07 * 128 = 8.96 -> 8.
        assert validate_doppler_parameters(128, 0.07) == 8

    def test_doppler_just_below_half_is_accepted(self):
        # For any f_m < 0.5 the band edges cannot collide (2 floor(f_m M) < M).
        assert validate_doppler_parameters(16, 0.49) == 7


class TestYoungBeaulieuFilter:
    @pytest.fixture(scope="class")
    def paper_filter(self):
        return young_beaulieu_filter(4096, 0.05)

    def test_length(self, paper_filter):
        assert paper_filter.shape == (4096,)

    def test_dc_coefficient_zero(self, paper_filter):
        assert paper_filter[0] == 0.0

    def test_real_and_non_negative(self, paper_filter):
        assert not np.iscomplexobj(paper_filter)
        assert np.all(paper_filter >= 0.0)

    def test_symmetry_f_k_equals_f_m_minus_k(self, paper_filter):
        # Eq. (21) is symmetric: F[k] == F[M-k] for k = 1..M-1.
        assert np.allclose(paper_filter[1:], paper_filter[1:][::-1])

    def test_stopband_is_zero(self, paper_filter):
        km = 204
        assert np.all(paper_filter[km + 1 : 4096 - km] == 0.0)

    def test_passband_is_positive(self, paper_filter):
        km = 204
        assert np.all(paper_filter[1 : km + 1] > 0.0)

    def test_interior_matches_eq21(self, paper_filter):
        m, fm = 4096, 0.05
        for k in (1, 50, 150, 203):
            expected = np.sqrt(1.0 / (2.0 * np.sqrt(1.0 - (k / (m * fm)) ** 2)))
            assert paper_filter[k] == pytest.approx(expected)

    def test_edge_coefficient_matches_eq21(self, paper_filter):
        km = 204
        expected = np.sqrt(
            (km / 2.0) * (np.pi / 2.0 - np.arctan((km - 1) / np.sqrt(2.0 * km - 1.0)))
        )
        assert paper_filter[km] == pytest.approx(expected)
        assert paper_filter[4096 - km] == pytest.approx(expected)

    def test_coefficients_grow_toward_band_edge(self, paper_filter):
        # The Jakes spectrum diverges at the band edge, so |F| increases with k
        # inside the passband interior.
        km = 204
        interior = paper_filter[1:km]
        assert np.all(np.diff(interior) >= 0)

    def test_small_filter_design(self):
        coeffs = young_beaulieu_filter(64, 0.1)
        assert coeffs.shape == (64,)
        assert coeffs[0] == 0.0


class TestFilterOutputVariance:
    def test_matches_eq19(self):
        coeffs = young_beaulieu_filter(1024, 0.05)
        sigma_orig2 = 0.5
        expected = 2.0 * sigma_orig2 * np.sum(coeffs**2) / 1024**2
        assert filter_output_variance(coeffs, sigma_orig2) == pytest.approx(expected)

    def test_scales_linearly_with_input_variance(self):
        coeffs = young_beaulieu_filter(512, 0.05)
        assert filter_output_variance(coeffs, 1.0) == pytest.approx(
            2.0 * filter_output_variance(coeffs, 0.5)
        )

    def test_invalid_input_variance(self):
        coeffs = young_beaulieu_filter(512, 0.05)
        with pytest.raises(DopplerError):
            filter_output_variance(coeffs, 0.0)

    def test_empty_filter_rejected(self):
        with pytest.raises(FilterDesignError):
            filter_output_variance(np.array([]), 0.5)

    def test_matches_empirical_output_variance(self):
        # Generate via the IDFT construction directly and verify Eq. (19).
        m, fm, sigma_orig2 = 2048, 0.05, 0.5
        coeffs = young_beaulieu_filter(m, fm)
        rng = np.random.default_rng(0)
        variances = []
        for _ in range(50):
            a = rng.normal(0.0, np.sqrt(sigma_orig2), m)
            b = rng.normal(0.0, np.sqrt(sigma_orig2), m)
            u = np.fft.ifft(coeffs * (a - 1j * b))
            variances.append(np.mean(np.abs(u) ** 2))
        assert np.mean(variances) == pytest.approx(
            filter_output_variance(coeffs, sigma_orig2), rel=0.05
        )


class TestFilterAutocorrelation:
    def test_normalized_matches_bessel(self):
        coeffs = young_beaulieu_filter(4096, 0.05)
        r_rr, _ = filter_autocorrelation(coeffs, 0.5, max_lag=50)
        normalized = r_rr / r_rr[0]
        reference = j0(2 * np.pi * 0.05 * np.arange(51))
        assert np.max(np.abs(normalized - reference)) < 0.03

    def test_cross_correlation_vanishes_for_real_filter(self):
        coeffs = young_beaulieu_filter(2048, 0.1)
        r_rr, r_ri = filter_autocorrelation(coeffs, 0.5, max_lag=20)
        assert np.max(np.abs(r_ri)) < 1e-12 * r_rr[0]

    def test_lag_zero_is_half_output_variance(self):
        coeffs = young_beaulieu_filter(1024, 0.05)
        r_rr, _ = filter_autocorrelation(coeffs, 0.5, max_lag=0)
        assert 2 * r_rr[0] == pytest.approx(filter_output_variance(coeffs, 0.5))

    def test_invalid_lag(self):
        coeffs = young_beaulieu_filter(64, 0.1)
        with pytest.raises(ValueError):
            filter_autocorrelation(coeffs, 0.5, max_lag=64)

