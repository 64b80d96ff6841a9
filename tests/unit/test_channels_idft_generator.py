"""Unit tests for the single-branch IDFT Rayleigh generator (Fig. 2)."""

import numpy as np
import pytest
from scipy.special import j0

from repro.channels import IDFTRayleighGenerator
from repro.exceptions import DimensionError, DopplerError
from repro.signal import normalized_autocorrelation


class TestConstruction:
    def test_paper_configuration(self):
        gen = IDFTRayleighGenerator(4096, 0.05, input_variance_per_dim=0.5, rng=0)
        assert gen.n_points == 4096
        assert gen.normalized_doppler == 0.05
        assert gen.input_variance_per_dim == 0.5

    def test_invalid_doppler_raises(self):
        with pytest.raises(DopplerError):
            IDFTRayleighGenerator(1024, 0.7)

    def test_filter_coefficients_copy(self):
        gen = IDFTRayleighGenerator(256, 0.1, rng=0)
        coeffs = gen.filter_coefficients
        coeffs[:] = 0.0
        assert np.any(gen.filter_coefficients > 0)

    def test_output_variance_positive(self):
        gen = IDFTRayleighGenerator(1024, 0.05, rng=0)
        assert gen.output_variance > 0


class TestGeneration:
    def test_block_shape_and_dtype(self):
        gen = IDFTRayleighGenerator(512, 0.05, rng=1)
        block = gen.generate_block()
        assert block.shape == (512,)
        assert np.iscomplexobj(block)

    def test_reproducible_with_same_seed(self):
        a = IDFTRayleighGenerator(256, 0.1, rng=3).generate_block()
        b = IDFTRayleighGenerator(256, 0.1, rng=3).generate_block()
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = IDFTRayleighGenerator(256, 0.1, rng=3).generate_block()
        b = IDFTRayleighGenerator(256, 0.1, rng=4).generate_block()
        assert not np.allclose(a, b)

    def test_blocks_shape(self):
        gen = IDFTRayleighGenerator(128, 0.1, rng=5)
        blocks = gen.generate_blocks(3)
        assert blocks.shape == (3, 128)

    def test_blocks_are_independent(self):
        gen = IDFTRayleighGenerator(128, 0.1, rng=6)
        blocks = gen.generate_blocks(2)
        assert not np.allclose(blocks[0], blocks[1])

    def test_invalid_block_count(self):
        gen = IDFTRayleighGenerator(128, 0.1, rng=7)
        with pytest.raises(DimensionError):
            gen.generate_blocks(0)

    def test_rng_override_per_call(self):
        gen = IDFTRayleighGenerator(128, 0.1, rng=8)
        a = gen.generate_block(rng=100)
        b = IDFTRayleighGenerator(128, 0.1, rng=9).generate_block(rng=100)
        assert np.allclose(a, b)


class TestStatisticalProperties:
    @pytest.fixture(scope="class")
    def big_block(self):
        gen = IDFTRayleighGenerator(16384, 0.05, input_variance_per_dim=0.5, rng=11)
        return gen, gen.generate_block()

    def test_zero_mean(self, big_block):
        _, block = big_block
        assert abs(np.mean(block)) < 0.05 * np.sqrt(np.mean(np.abs(block) ** 2))

    def test_variance_matches_eq19(self, big_block):
        gen, block = big_block
        assert np.mean(np.abs(block) ** 2) == pytest.approx(gen.output_variance, rel=0.1)

    def test_autocorrelation_follows_clarke_model(self, big_block):
        gen, block = big_block
        acf = np.real(normalized_autocorrelation(block, max_lag=60))
        reference = j0(2 * np.pi * gen.normalized_doppler * np.arange(61))
        assert np.sqrt(np.mean((acf - reference) ** 2)) < 0.1

    def test_real_imag_balance(self, big_block):
        _, block = big_block
        ratio = np.var(block.real) / np.var(block.imag)
        assert 0.8 < ratio < 1.25

    def test_envelope_is_rayleigh_like(self, big_block):
        gen, block = big_block
        envelope = np.abs(block)
        # For a Rayleigh envelope, mean = sigma_g sqrt(pi)/2 with sigma_g^2 the
        # complex Gaussian power.
        sigma_g = np.sqrt(np.mean(envelope**2))
        assert np.mean(envelope) == pytest.approx(sigma_g * np.sqrt(np.pi) / 2.0, rel=0.05)
