"""Unit tests for repro.signal.levels (dB scaling, LCR, AFD)."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.signal import (
    amplitude_to_db,
    average_fade_duration,
    envelope_db_around_rms,
    level_crossing_rate,
    power_to_db,
    rms,
    theoretical_afd,
    theoretical_lcr,
)


class TestDbConversions:
    def test_amplitude_round_trip(self):
        values = np.array([0.1, 1.0, 3.0, 10.0])
        assert np.allclose(10.0 ** (amplitude_to_db(values) / 20.0), values)

    def test_power_round_trip(self):
        values = np.array([0.5, 1.0, 2.0])
        assert np.allclose(10.0 ** (power_to_db(values) / 10.0), values)

    def test_known_values(self):
        assert amplitude_to_db(10.0) == pytest.approx(20.0)
        assert power_to_db(10.0) == pytest.approx(10.0)
        assert amplitude_to_db(2.0) == pytest.approx(6.0206, rel=1e-4)

    def test_zero_amplitude_is_finite(self):
        assert np.isfinite(amplitude_to_db(0.0))

    def test_rms_known_value(self):
        assert rms(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))


class TestEnvelopeDbAroundRms:
    def test_constant_envelope_is_zero_db(self):
        assert np.allclose(envelope_db_around_rms(np.full(100, 5.0)), 0.0)

    def test_two_branch_independent_normalization(self):
        envelopes = np.vstack([np.full(10, 1.0), np.full(10, 100.0)])
        db = envelope_db_around_rms(envelopes)
        assert np.allclose(db, 0.0)

    def test_1d_input_keeps_shape(self):
        out = envelope_db_around_rms(np.array([1.0, 2.0, 3.0]))
        assert out.shape == (3,)

    def test_rejects_3d(self):
        with pytest.raises(DimensionError):
            envelope_db_around_rms(np.ones((2, 2, 2)))


class TestLevelCrossingRate:
    def test_simple_sine_crossings(self):
        # One positive-going crossing of level 0 per period.
        t = np.arange(0, 10, 0.01)
        envelope = np.sin(2 * np.pi * t) + 1.5  # oscillates around 1.5
        lcr = level_crossing_rate(envelope, threshold=1.5, sample_rate=100.0)
        assert lcr == pytest.approx(1.0, rel=0.15)

    def test_no_crossings_above_max(self):
        envelope = np.abs(np.sin(np.linspace(0, 10, 500))) + 0.1
        assert level_crossing_rate(envelope, threshold=5.0) == 0.0

    def test_requires_two_samples(self):
        with pytest.raises(DimensionError):
            level_crossing_rate(np.array([1.0]), threshold=0.5)


class TestAverageFadeDuration:
    def test_never_below_threshold_returns_zero(self):
        envelope = np.full(100, 2.0)
        assert average_fade_duration(envelope, threshold=1.0) == 0.0

    def test_square_wave_duration(self):
        # 50 samples below, 50 above, repeated: each fade lasts 50 samples.
        envelope = np.tile(np.concatenate([np.zeros(50), np.ones(50) * 2]), 4)
        afd = average_fade_duration(envelope, threshold=1.0, sample_rate=1.0)
        assert afd == pytest.approx(50.0, rel=0.05)

    def test_requires_two_samples(self):
        with pytest.raises(DimensionError):
            average_fade_duration(np.array([1.0]), threshold=0.5)


class TestTheoreticalFormulas:
    def test_lcr_peak_near_rho_of_0_707(self):
        rho = np.linspace(0.05, 3.0, 400)
        lcr = theoretical_lcr(rho, max_doppler_hz=50.0)
        assert rho[np.argmax(lcr)] == pytest.approx(1.0 / np.sqrt(2.0), abs=0.02)

    def test_lcr_scales_with_doppler(self):
        assert theoretical_lcr(1.0, 100.0) == pytest.approx(2 * theoretical_lcr(1.0, 50.0))

    def test_afd_increases_with_threshold(self):
        afd = theoretical_afd(np.array([0.1, 1.0, 2.0]), max_doppler_hz=50.0)
        assert afd[0] < afd[1] < afd[2]

    def test_lcr_afd_consistency_with_outage_probability(self):
        # For Rayleigh fading, LCR * AFD = P(r < rho * r_rms) = 1 - exp(-rho^2).
        rho = np.array([0.3, 0.7, 1.5])
        product = theoretical_lcr(rho, 50.0) * theoretical_afd(rho, 50.0)
        assert np.allclose(product, 1.0 - np.exp(-(rho**2)), rtol=1e-10)


class TestEmpiricalVsTheoreticalFadeStatistics:
    @pytest.mark.slow
    def test_rayleigh_fading_lcr_close_to_theory(self):
        # Generate Doppler-shaped Rayleigh fading and compare its LCR at the
        # rms level with the theoretical value sqrt(2 pi) f_m rho e^{-rho^2}.
        from repro.channels import IDFTRayleighGenerator

        fm_normalized = 0.02
        generator = IDFTRayleighGenerator(
            n_points=65536, normalized_doppler=fm_normalized, rng=0
        )
        envelope = np.abs(generator.generate_block())
        reference = rms(envelope)
        measured = level_crossing_rate(envelope, threshold=reference, sample_rate=1.0)
        expected = float(theoretical_lcr(1.0, fm_normalized))
        assert measured == pytest.approx(expected, rel=0.2)
