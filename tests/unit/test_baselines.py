"""Unit tests for the conventional baseline generators [1]-[6]."""

import numpy as np
import pytest

from repro.baselines import (
    BeaulieuMeraniGenerator,
    ErtelReedGenerator,
    NatarajanGenerator,
    SalzWintersGenerator,
    SorooshyariDautGenerator,
)
from repro.baselines.base import require_equal_powers
from repro.exceptions import (
    CholeskyError,
    GenerationError,
    NotPositiveSemiDefiniteError,
    PowerError,
    SpecificationError,
)


@pytest.fixture()
def unequal_power_covariance():
    powers = np.array([0.5, 1.0, 2.0])
    rho = 0.6
    base = rho ** np.abs(np.subtract.outer(range(3), range(3)))
    return (base * np.sqrt(np.outer(powers, powers))).astype(complex)


class TestRequireEqualPowers:
    def test_accepts_equal(self):
        assert require_equal_powers(np.array([2.0, 2.0]), "test") == 2.0

    def test_rejects_unequal(self):
        with pytest.raises(PowerError, match="equal-power"):
            require_equal_powers(np.array([1.0, 2.0]), "test")

    def test_rejects_non_positive(self):
        with pytest.raises(PowerError):
            require_equal_powers(np.array([1.0, 0.0]), "test")


class TestSalzWinters:
    def test_achieves_equal_power_covariance(self, eq22_covariance):
        generator = SalzWintersGenerator(eq22_covariance, rng=0)
        samples = generator.generate(200_000)
        achieved = samples @ samples.conj().T / samples.shape[1]
        assert np.max(np.abs(achieved - eq22_covariance)) < 0.03

    def test_rejects_unequal_power(self, unequal_power_covariance):
        with pytest.raises(PowerError):
            SalzWintersGenerator(unequal_power_covariance, rng=0)

    def test_fails_on_non_psd(self, indefinite_covariance):
        with pytest.raises(NotPositiveSemiDefiniteError) as excinfo:
            SalzWintersGenerator(indefinite_covariance, rng=0)
        assert excinfo.value.min_eigenvalue < 0

    def test_output_shape(self, eq23_covariance):
        generator = SalzWintersGenerator(eq23_covariance, rng=1)
        assert generator.generate(16).shape == (3, 16)

    def test_invalid_sample_count(self, eq23_covariance):
        with pytest.raises(GenerationError):
            SalzWintersGenerator(eq23_covariance, rng=0).generate(0)


class TestErtelReed:
    def test_exactly_two_branches(self):
        generator = ErtelReedGenerator(envelope_correlation=0.5, rng=0)
        assert generator.n_branches == 2
        assert generator.generate(8).shape == (2, 8)

    def test_envelope_correlation_to_gaussian_correlation(self):
        generator = ErtelReedGenerator(envelope_correlation=0.49, rng=0)
        assert abs(generator.gaussian_correlation) == pytest.approx(0.7)

    def test_achieved_gaussian_correlation_matches_the_request(self):
        # E{z1 conj(z2)} must equal power * rho, the requested off-diagonal.
        rho = 0.6 + 0.2j
        generator = ErtelReedGenerator(gaussian_correlation=rho, power=1.0, rng=1)
        samples = generator.generate(300_000)
        achieved = np.mean(samples[0] * np.conj(samples[1]))
        assert abs(achieved - rho) < 0.02

    def test_achieved_envelope_correlation(self):
        generator = ErtelReedGenerator(envelope_correlation=0.49, rng=2)
        envelopes = np.abs(generator.generate(400_000))
        corr = np.corrcoef(envelopes[0], envelopes[1])[0, 1]
        assert corr == pytest.approx(0.49, abs=0.03)

    def test_branch_powers_equal(self):
        generator = ErtelReedGenerator(envelope_correlation=0.3, power=2.0, rng=3)
        samples = generator.generate(200_000)
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        assert np.allclose(powers, 2.0, rtol=0.03)

    def test_requires_some_correlation_argument(self):
        with pytest.raises(SpecificationError):
            ErtelReedGenerator(rng=0)

    def test_rejects_correlation_of_one_or_more(self):
        with pytest.raises(SpecificationError):
            ErtelReedGenerator(envelope_correlation=1.0, rng=0)
        with pytest.raises(SpecificationError):
            ErtelReedGenerator(gaussian_correlation=1.2, rng=0)

    def test_rejects_invalid_power(self):
        with pytest.raises(SpecificationError):
            ErtelReedGenerator(envelope_correlation=0.5, power=0.0, rng=0)


class TestBeaulieuMerani:
    def test_achieves_covariance_for_pd_equal_power(self, eq22_covariance):
        generator = BeaulieuMeraniGenerator(eq22_covariance, rng=0)
        samples = generator.generate(200_000)
        achieved = samples @ samples.conj().T / samples.shape[1]
        assert np.max(np.abs(achieved - eq22_covariance)) < 0.03

    def test_rejects_unequal_power(self, unequal_power_covariance):
        with pytest.raises(PowerError):
            BeaulieuMeraniGenerator(unequal_power_covariance, rng=0)

    def test_fails_on_indefinite_covariance(self, indefinite_covariance):
        with pytest.raises(CholeskyError):
            BeaulieuMeraniGenerator(indefinite_covariance, rng=0)

    def test_fails_on_singular_covariance(self):
        with pytest.raises(CholeskyError):
            BeaulieuMeraniGenerator(np.ones((3, 3), dtype=complex), rng=0)

    def test_coloring_matrix_is_triangular(self, eq23_covariance):
        generator = BeaulieuMeraniGenerator(eq23_covariance, rng=0)
        assert np.allclose(np.triu(generator.coloring_matrix, k=1), 0.0)


class TestNatarajan:
    def test_supports_unequal_power(self, unequal_power_covariance):
        generator = NatarajanGenerator(unequal_power_covariance, rng=0)
        samples = generator.generate(200_000)
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        assert np.allclose(powers, [0.5, 1.0, 2.0], rtol=0.05)

    def test_discards_imaginary_covariance_parts(self, eq22_covariance):
        generator = NatarajanGenerator(eq22_covariance, rng=1)
        samples = generator.generate(300_000)
        achieved = samples @ samples.conj().T / samples.shape[1]
        # The achieved covariance matches the real part of the request, not the
        # request itself - the documented limitation.
        assert np.max(np.abs(achieved - np.real(eq22_covariance))) < 0.03
        assert np.max(np.abs(achieved - eq22_covariance)) > 0.3

    def test_fails_on_indefinite(self, indefinite_covariance):
        with pytest.raises(CholeskyError):
            NatarajanGenerator(indefinite_covariance, rng=0)


class TestSorooshyariDaut:
    def test_snapshot_mode_achieves_pd_covariance(self, eq22_covariance):
        generator = SorooshyariDautGenerator(eq22_covariance, rng=0)
        samples = generator.generate(200_000)
        achieved = samples @ samples.conj().T / samples.shape[1]
        assert np.max(np.abs(achieved - eq22_covariance)) < 0.03

    def test_epsilon_repair_allows_indefinite_requests(self, indefinite_covariance):
        generator = SorooshyariDautGenerator(indefinite_covariance, rng=1)
        assert not np.allclose(generator.effective_covariance, indefinite_covariance)
        samples = generator.generate(1000)
        assert samples.shape == (3, 1000)

    def test_rejects_unequal_power(self, unequal_power_covariance):
        with pytest.raises(PowerError):
            SorooshyariDautGenerator(unequal_power_covariance, rng=0)

    def test_effective_covariance_copy(self, eq22_covariance):
        generator = SorooshyariDautGenerator(eq22_covariance, rng=0)
        matrix = generator.effective_covariance
        matrix[0, 0] = 99.0
        assert generator.effective_covariance[0, 0] != 99.0

    def test_envelope_block_interface(self, eq22_covariance):
        generator = SorooshyariDautGenerator(eq22_covariance, rng=0)
        block = generator.generate_envelopes(64)
        assert block.envelopes.shape == (3, 64)
        assert block.metadata["reference"] == "[6]"
