"""Unit tests for the real-time Doppler-shaped generator (Section 5)."""

import numpy as np
import pytest

from repro.channels import clarke_autocorrelation
from repro.core import CovarianceSpec, RealTimeRayleighGenerator
from repro.exceptions import DopplerError, GenerationError
from repro.signal import normalized_autocorrelation


@pytest.fixture(scope="module")
def small_generator(eq22_covariance=None):
    # Use a 2x2 covariance to keep module-scoped generation cheap.
    covariance = np.array([[1.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.0]])
    return RealTimeRayleighGenerator(
        covariance, normalized_doppler=0.05, n_points=2048, rng=7
    )


class TestConstruction:
    def test_paper_defaults(self, eq22_covariance):
        generator = RealTimeRayleighGenerator(
            eq22_covariance, normalized_doppler=0.05, n_points=4096, rng=0
        )
        assert generator.n_points == 4096
        assert generator.normalized_doppler == 0.05
        assert generator.n_branches == 3
        assert generator.generate_gaussian().metadata["compensate_variance"] is True

    def test_filter_output_variance_exposed(self, small_generator):
        # For M = 2048, fm = 0.05, sigma_orig^2 = 0.5 the output variance is
        # far below 1, which is why compensation matters.
        assert 0 < small_generator.filter_output_variance < 1e-2

    def test_invalid_doppler(self, eq22_covariance):
        with pytest.raises(DopplerError):
            RealTimeRayleighGenerator(eq22_covariance, normalized_doppler=0.9, rng=0)

    def test_accepts_spec(self, eq22_spec):
        generator = RealTimeRayleighGenerator(
            eq22_spec, normalized_doppler=0.05, n_points=1024, rng=0
        )
        assert generator.spec is eq22_spec

    def test_doppler_filter_copy(self, small_generator):
        coeffs = small_generator.doppler_filter
        coeffs[:] = 0
        assert np.any(small_generator.doppler_filter > 0)


class TestGeneration:
    def test_block_shape(self, small_generator):
        block = small_generator.generate_gaussian(1)
        assert block.samples.shape == (2, 2048)

    def test_multi_block_shape(self, small_generator):
        assert small_generator.generate(2).shape == (2, 4096)

    def test_envelopes_non_negative(self, small_generator):
        env = small_generator.generate_envelopes(1)
        assert np.all(env.envelopes >= 0)

    def test_invalid_block_count(self, small_generator):
        with pytest.raises(GenerationError):
            small_generator.generate(0)

    def test_metadata(self, small_generator):
        block = small_generator.generate_gaussian(1)
        assert block.metadata["method"] == "realtime"
        assert block.metadata["normalized_doppler"] == 0.05
        assert block.metadata["compensate_variance"] is True

    def test_reproducible(self):
        covariance = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
        a = RealTimeRayleighGenerator(
            covariance, normalized_doppler=0.1, n_points=512, rng=3
        ).generate(1)
        b = RealTimeRayleighGenerator(
            covariance, normalized_doppler=0.1, n_points=512, rng=3
        ).generate(1)
        assert np.allclose(a, b)

    def test_branches_use_independent_streams(self):
        covariance = np.eye(2, dtype=complex)
        samples = RealTimeRayleighGenerator(
            covariance, normalized_doppler=0.1, n_points=4096, rng=5
        ).generate(1)
        correlation = np.abs(
            np.vdot(samples[0], samples[1])
            / np.sqrt(np.vdot(samples[0], samples[0]) * np.vdot(samples[1], samples[1]))
        )
        assert correlation < 0.1


class TestStatisticalProperties:
    @pytest.fixture(scope="class")
    def generated(self):
        covariance = np.array([[1.0, 0.6 + 0.2j], [0.6 - 0.2j, 2.0]])
        generator = RealTimeRayleighGenerator(
            covariance, normalized_doppler=0.05, n_points=4096, rng=13
        )
        return covariance, generator, generator.generate(12)

    def test_achieved_covariance(self, generated):
        covariance, _, samples = generated
        achieved = samples @ samples.conj().T / samples.shape[1]
        assert np.max(np.abs(achieved - covariance)) < 0.15

    def test_branch_powers_compensated(self, generated):
        covariance, _, samples = generated
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        assert powers[0] == pytest.approx(1.0, rel=0.1)
        assert powers[1] == pytest.approx(2.0, rel=0.1)

    def test_temporal_autocorrelation_is_clarke(self, generated):
        _, generator, samples = generated
        acf = np.real(normalized_autocorrelation(samples[0][:4096], max_lag=60))
        reference = clarke_autocorrelation(np.arange(61), generator.normalized_doppler)
        assert np.sqrt(np.mean((acf - reference) ** 2)) < 0.15

    def test_uncompensated_variant_scales_by_filter_variance(self):
        covariance = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
        generator = RealTimeRayleighGenerator(
            covariance,
            normalized_doppler=0.05,
            n_points=4096,
            compensate_variance=False,
            rng=17,
        )
        samples = generator.generate(6)
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        sigma_g2 = generator.filter_output_variance
        # Powers equal sigma_g^2 * requested ( = sigma_g^2 ), not 1.
        assert np.allclose(powers, sigma_g2, rtol=0.15)
        assert np.all(powers < 0.01)


class TestBackendAndCache:
    """The realtime generator rides the batched substrate and engine seam."""

    def test_generators_build_their_own_filter_and_coloring(self):
        from repro.channels.doppler import young_beaulieu_filter
        from repro.core.coloring import compute_coloring

        covariance = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
        first, second = (
            RealTimeRayleighGenerator(
                covariance, normalized_doppler=0.05, n_points=64, rng=1
            )
            for _ in range(2)
        )
        # Fresh builds, not one shared cached object.
        assert second._filter is not first._filter
        assert second._snapshot.coloring is not first._snapshot.coloring
        assert first._filter.tobytes() == young_beaulieu_filter(64, 0.05).tobytes()
        assert (
            first._snapshot.coloring.coloring_matrix.tobytes()
            == compute_coloring(covariance).coloring_matrix.tobytes()
        )
        assert first.generate(1).shape == (2, 64)
