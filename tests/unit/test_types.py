"""Unit tests for repro.types value objects."""

import numpy as np
import pytest

from repro.types import EnvelopeBlock, GaussianBlock


@pytest.fixture()
def gaussian_block():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(3, 500)) + 1j * rng.normal(size=(3, 500))
    return GaussianBlock(samples=samples, variances=np.array([2.0, 2.0, 2.0]))


class TestGaussianBlock:
    def test_shape_properties(self, gaussian_block):
        assert gaussian_block.n_branches == 3
        assert gaussian_block.n_samples == 500

    def test_envelopes_are_moduli(self, gaussian_block):
        env = gaussian_block.envelopes()
        assert np.allclose(env.envelopes, np.abs(gaussian_block.samples))

    def test_envelopes_carry_variances_and_metadata(self):
        block = GaussianBlock(
            samples=np.ones((2, 4), dtype=complex),
            variances=np.array([1.0, 3.0]),
            metadata={"method": "test"},
        )
        env = block.envelopes()
        assert np.allclose(env.gaussian_variances, [1.0, 3.0])
        assert env.metadata["method"] == "test"

    def test_single_sample_vector(self):
        block = GaussianBlock(samples=np.ones(3, dtype=complex), variances=np.ones(3))
        assert block.n_branches == 3
        assert block.n_samples == 1


class TestEnvelopeBlock:
    def test_rms_per_branch(self):
        env = EnvelopeBlock(
            envelopes=np.array([[3.0, 4.0], [1.0, 1.0]]),
            gaussian_variances=np.array([1.0, 1.0]),
        )
        rms = env.rms()
        assert rms[0] == pytest.approx(np.sqrt(12.5))
        assert rms[1] == pytest.approx(1.0)

    def test_shape_properties(self):
        env = EnvelopeBlock(envelopes=np.ones((4, 7)), gaussian_variances=np.ones(4))
        assert env.n_branches == 4
        assert env.n_samples == 7
