"""Unit tests for repro.signal.correlation."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.signal import (
    autocorrelation,
    complex_autocovariance,
    normalized_autocorrelation,
)


class TestAutocorrelation:
    def test_lag_zero_is_power(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        acf = autocorrelation(x, max_lag=0)
        assert acf[0] == pytest.approx(1.0)

    def test_alternating_sequence_lag_one_negative(self):
        x = np.array([1.0, -1.0] * 50)
        acf = autocorrelation(x, max_lag=1)
        assert acf[1] < 0

    def test_white_noise_decorrelates(self, rng):
        x = rng.normal(size=100_000)
        acf = normalized_autocorrelation(x, max_lag=5)
        assert acf[0] == pytest.approx(1.0)
        assert np.all(np.abs(acf[1:]) < 0.02)

    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        acf = autocorrelation(x, max_lag=5)
        for d in range(6):
            direct = np.sum(x[d:] * np.conj(x[: len(x) - d])) / len(x)
            assert acf[d] == pytest.approx(direct, abs=1e-10)

    def test_real_input_gives_real_output(self, rng):
        acf = autocorrelation(rng.normal(size=128), max_lag=4)
        assert not np.iscomplexobj(acf)

    def test_default_max_lag(self, rng):
        x = rng.normal(size=32)
        assert autocorrelation(x).shape == (32,)

    def test_invalid_max_lag(self, rng):
        with pytest.raises(ValueError):
            autocorrelation(rng.normal(size=8), max_lag=8)

    def test_rejects_2d(self):
        with pytest.raises(DimensionError):
            autocorrelation(np.ones((2, 4)))

    def test_normalized_rejects_zero_sequence(self):
        with pytest.raises(ValueError):
            normalized_autocorrelation(np.zeros(16))


class TestAgainstDirectSum:
    def test_fft_autocorrelation_matches_the_lag_sum(self, rng):
        x = rng.normal(size=256)
        direct = [np.sum(x[d:] * x[: x.size - d]) / x.size for d in range(4)]
        assert autocorrelation(x, max_lag=3) == pytest.approx(direct, abs=1e-12)


class TestComplexAutocovariance:
    def test_shape(self, rng):
        samples = rng.normal(size=(3, 1000)) + 1j * rng.normal(size=(3, 1000))
        assert complex_autocovariance(samples).shape == (3, 3)

    def test_hermitian(self, rng):
        samples = rng.normal(size=(3, 1000)) + 1j * rng.normal(size=(3, 1000))
        cov = complex_autocovariance(samples)
        assert np.allclose(cov, cov.conj().T)

    def test_diagonal_is_power(self, rng):
        samples = 2.0 * (rng.normal(size=(2, 200_000)) + 1j * rng.normal(size=(2, 200_000)))
        cov = complex_autocovariance(samples)
        assert np.real(cov[0, 0]) == pytest.approx(8.0, rel=0.02)

    def test_1d_input_promoted(self, rng):
        samples = rng.normal(size=512) + 1j * rng.normal(size=512)
        assert complex_autocovariance(samples).shape == (1, 1)

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            complex_autocovariance(np.empty((2, 0)))
