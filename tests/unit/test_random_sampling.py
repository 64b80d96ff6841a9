"""Unit tests for complex Gaussian sampling and its Rayleigh moduli."""

import numpy as np
import pytest

from repro.exceptions import PowerError
from repro.random import complex_gaussian


class TestComplexGaussian:
    def test_shape_scalar(self):
        assert complex_gaussian(10, rng=0).shape == (10,)

    def test_shape_tuple(self):
        assert complex_gaussian((3, 5), rng=0).shape == (3, 5)

    def test_is_complex(self):
        assert np.iscomplexobj(complex_gaussian(4, rng=0))

    def test_total_variance_matches_request(self):
        samples = complex_gaussian(200_000, variance=3.0, rng=1)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(3.0, rel=0.02)

    def test_variance_split_between_dimensions(self):
        samples = complex_gaussian(200_000, variance=2.0, rng=2)
        assert np.var(samples.real) == pytest.approx(1.0, rel=0.02)
        assert np.var(samples.imag) == pytest.approx(1.0, rel=0.02)

    def test_zero_mean(self):
        samples = complex_gaussian(200_000, rng=3)
        assert abs(np.mean(samples)) < 0.01

    def test_real_imag_uncorrelated(self):
        samples = complex_gaussian(200_000, rng=4)
        corr = np.corrcoef(samples.real, samples.imag)[0, 1]
        assert abs(corr) < 0.01

    def test_reproducible(self):
        assert np.allclose(complex_gaussian(8, rng=5), complex_gaussian(8, rng=5))

    @pytest.mark.parametrize("variance", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_variance_raises(self, variance):
        with pytest.raises(PowerError):
            complex_gaussian(4, variance=variance, rng=0)

    def test_default_has_unit_variance(self):
        samples = complex_gaussian(100_000, rng=6)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=0.02)


class TestRayleighModuli:
    def test_mean_matches_eq14(self):
        # E{r} = sigma_g * sqrt(pi)/2 for gaussian power sigma_g^2.
        samples = np.abs(complex_gaussian(400_000, variance=4.0, rng=1))
        assert np.mean(samples) == pytest.approx(2.0 * np.sqrt(np.pi) / 2.0, rel=0.01)

    def test_variance_matches_eq15(self):
        samples = np.abs(complex_gaussian(400_000, variance=4.0, rng=2))
        assert np.var(samples) == pytest.approx(4.0 * (1 - np.pi / 4), rel=0.02)

    def test_second_moment_is_gaussian_power(self):
        samples = np.abs(complex_gaussian(400_000, variance=2.5, rng=3))
        assert np.mean(samples**2) == pytest.approx(2.5, rel=0.01)
