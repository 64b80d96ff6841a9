"""Unit tests for the sum-of-sinusoids Rayleigh generator."""

import numpy as np
import pytest

from repro.channels import SumOfSinusoidsGenerator, clarke_autocorrelation
from repro.exceptions import DopplerError, SpecificationError
from repro.signal import normalized_autocorrelation


class TestConstruction:
    def test_basic_properties(self):
        generator = SumOfSinusoidsGenerator(1024, 0.05, n_sinusoids=32, rng=0)
        assert generator.n_points == 1024
        assert generator.normalized_doppler == 0.05
        assert generator.n_sinusoids == 32
        assert generator.output_variance == 1.0

    def test_invalid_doppler(self):
        with pytest.raises(DopplerError):
            SumOfSinusoidsGenerator(128, 0.6)

    def test_too_few_sinusoids(self):
        with pytest.raises(SpecificationError):
            SumOfSinusoidsGenerator(128, 0.05, n_sinusoids=2)

    def test_invalid_variance(self):
        with pytest.raises(SpecificationError):
            SumOfSinusoidsGenerator(128, 0.05, output_variance=0.0)

    def test_invalid_length(self):
        with pytest.raises(SpecificationError):
            SumOfSinusoidsGenerator(0, 0.05)


class TestGeneration:
    def test_block_shape_and_dtype(self):
        generator = SumOfSinusoidsGenerator(256, 0.1, rng=1)
        block = generator.generate_block()
        assert block.shape == (256,)
        assert np.iscomplexobj(block)

    def test_reproducible(self):
        a = SumOfSinusoidsGenerator(128, 0.1, rng=5).generate_block()
        b = SumOfSinusoidsGenerator(128, 0.1, rng=5).generate_block()
        assert np.allclose(a, b)

    def test_blocks_differ(self):
        generator = SumOfSinusoidsGenerator(128, 0.1, rng=6)
        assert not np.allclose(generator.generate_block(), generator.generate_block())

    def test_output_variance_scaling(self):
        generator = SumOfSinusoidsGenerator(512, 0.05, output_variance=4.0, rng=7)
        blocks = [np.mean(np.abs(generator.generate_block()) ** 2) for _ in range(50)]
        assert np.mean(blocks) == pytest.approx(4.0, rel=0.1)


class TestStatisticalProperties:
    def test_mean_power_matches_target(self):
        generator = SumOfSinusoidsGenerator(2048, 0.05, n_sinusoids=64, rng=8)
        powers = [np.mean(np.abs(generator.generate_block()) ** 2) for _ in range(30)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.05)

    def test_average_autocorrelation_matches_clarke(self):
        generator = SumOfSinusoidsGenerator(4096, 0.05, n_sinusoids=128, rng=9)
        max_lag = 60
        acf = np.zeros(max_lag + 1)
        n_blocks = 30
        for _ in range(n_blocks):
            block = generator.generate_block()
            acf += np.real(normalized_autocorrelation(block, max_lag=max_lag))
        acf /= n_blocks
        reference = clarke_autocorrelation(np.arange(max_lag + 1), 0.05)
        assert np.sqrt(np.mean((acf - reference) ** 2)) < 0.1

    def test_envelope_is_approximately_rayleigh_for_many_sinusoids(self):
        generator = SumOfSinusoidsGenerator(8192, 0.05, n_sinusoids=256, rng=10)
        envelope = np.abs(generator.generate_block())
        sigma_g = np.sqrt(np.mean(envelope**2))
        assert np.mean(envelope) == pytest.approx(sigma_g * np.sqrt(np.pi) / 2.0, rel=0.05)
