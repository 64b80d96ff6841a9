"""Edge-case tests for ``Simulator.envelopes`` Doppler mode.

The Doppler path of the session API now runs as a one-entry Doppler plan of
the batched engine.  These tests pin down its edges: sample counts not
divisible by the IDFT block length, the single-branch ``N = 1`` case,
inferred vs. explicit normalized Doppler, the ``mode`` selector, and the
error paths (invalid ``f_m``, zero samples, conflicting or missing mode
arguments).
"""

import numpy as np
import pytest

from repro.api import Simulator
from repro.channels import DopplerSettings, OFDMScenario
from repro.core import CovarianceSpec
from repro.core.realtime import RealTimeRayleighGenerator
from repro.engine import DecompositionCache
from repro.exceptions import DopplerError, SpecificationError


@pytest.fixture()
def simulator():
    return Simulator(cache=DecompositionCache())


@pytest.fixture()
def spec():
    return CovarianceSpec.from_covariance_matrix(
        np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    )


@pytest.fixture()
def scenario():
    """An OFDM scenario carrying its own Doppler settings (f_m = 100/2000)."""
    return OFDMScenario(
        carrier_frequencies_hz=np.array([2.0e9, 2.001e9]),
        delays_s=np.array([0.0, 1e-6]),
        rms_delay_spread_s=1e-6,
        doppler=DopplerSettings(sampling_frequency_hz=2000.0, max_doppler_hz=100.0),
    )


class TestBlockHandling:
    def test_non_divisible_sample_count_truncates_a_continuous_record(
        self, simulator, spec
    ):
        """n_samples that is not a multiple of M: blocks are concatenated and
        truncated, matching the looped generator's record prefix."""
        block = simulator.envelopes(
            spec, 150, seed=9, normalized_doppler=0.05, n_points=64, return_gaussian=True
        )
        assert block.samples.shape == (2, 150)
        reference = RealTimeRayleighGenerator(
            spec, normalized_doppler=0.05, n_points=64, rng=9
        ).generate_gaussian(3)  # ceil(150 / 64) = 3 blocks
        assert np.array_equal(reference.samples[:, :150], block.samples)

    def test_default_block_size_holds_the_whole_record(self, simulator, spec):
        """Without n_points the block length is the doppler_block_size choice:
        one block covering n_samples (the historical behaviour)."""
        block = simulator.envelopes(
            spec, 100, seed=3, normalized_doppler=0.05, return_gaussian=True
        )
        assert block.samples.shape == (2, 100)
        assert block.metadata["n_points"] == 128  # smallest power of two >= 100
        reference = RealTimeRayleighGenerator(
            spec, normalized_doppler=0.05, n_points=128, rng=3
        ).generate_gaussian(1)
        assert np.array_equal(reference.samples[:, :100], block.samples)

    def test_single_branch_spec(self, simulator):
        """N = 1: one branch, one IDFT stream, scalar coloring."""
        single = CovarianceSpec.from_covariance_matrix(
            np.array([[2.0]], dtype=complex)
        )
        block = simulator.envelopes(
            single, 70, seed=4, normalized_doppler=0.1, n_points=64, return_gaussian=True
        )
        assert block.samples.shape == (1, 70)
        reference = RealTimeRayleighGenerator(
            single, normalized_doppler=0.1, n_points=64, rng=4
        ).generate_gaussian(2)
        assert np.array_equal(reference.samples[:, :70], block.samples)

    def test_compensation_toggle_matches_realtime_generator(self, simulator, spec):
        block = simulator.envelopes(
            spec,
            64,
            seed=5,
            normalized_doppler=0.05,
            n_points=64,
            compensate_variance=False,
            return_gaussian=True,
        )
        assert block.metadata["compensate_variance"] is False
        reference = RealTimeRayleighGenerator(
            spec,
            normalized_doppler=0.05,
            n_points=64,
            compensate_variance=False,
            rng=5,
        ).generate_gaussian(1)
        assert np.array_equal(reference.samples, block.samples)


class TestModeSelection:
    def test_scenario_infers_normalized_doppler(self, simulator, scenario):
        block = simulator.envelopes(
            scenario, 64, seed=7, gaussian_powers=np.ones(2), return_gaussian=True
        )
        assert block.metadata["method"] == "realtime"
        assert block.metadata["normalized_doppler"] == pytest.approx(0.05)

    def test_explicit_doppler_overrides_scenario(self, simulator, scenario):
        block = simulator.envelopes(
            scenario,
            64,
            seed=7,
            gaussian_powers=np.ones(2),
            normalized_doppler=0.2,
            return_gaussian=True,
        )
        assert block.metadata["normalized_doppler"] == 0.2

    def test_mode_doppler_accepts_inferred_doppler(self, simulator, scenario):
        block = simulator.envelopes(
            scenario,
            64,
            seed=7,
            gaussian_powers=np.ones(2),
            mode="doppler",
            return_gaussian=True,
        )
        assert block.metadata["method"] == "realtime"

    def test_mode_snapshot_suppresses_scenario_doppler(self, simulator, scenario):
        block = simulator.envelopes(
            scenario,
            64,
            seed=7,
            gaussian_powers=np.ones(2),
            mode="snapshot",
            return_gaussian=True,
        )
        assert block.metadata["method"] == "snapshot"

    def test_mode_doppler_without_doppler_raises(self, simulator, spec):
        with pytest.raises(SpecificationError, match="mode='doppler'"):
            simulator.envelopes(spec, 64, seed=1, mode="doppler")

    def test_mode_snapshot_conflicts_with_explicit_doppler(self, simulator, spec):
        with pytest.raises(SpecificationError, match="conflicts"):
            simulator.envelopes(
                spec, 64, seed=1, mode="snapshot", normalized_doppler=0.05
            )

    def test_unknown_mode_rejected(self, simulator, spec):
        with pytest.raises(SpecificationError, match="mode"):
            simulator.envelopes(spec, 64, seed=1, mode="realtime")


class TestErrorPaths:
    @pytest.mark.parametrize("bad_fm", [0.0, -0.05, 0.5, 0.9])
    def test_invalid_normalized_doppler_rejected(self, simulator, spec, bad_fm):
        with pytest.raises((SpecificationError, DopplerError)):
            simulator.envelopes(spec, 64, seed=1, normalized_doppler=bad_fm)

    @pytest.mark.parametrize("bad_fm", [0.0, 0.5])
    def test_invalid_doppler_rejected_with_explicit_block_size(
        self, simulator, spec, bad_fm
    ):
        with pytest.raises((SpecificationError, DopplerError)):
            simulator.envelopes(
                spec, 64, seed=1, normalized_doppler=bad_fm, n_points=64
            )

    @pytest.mark.parametrize("bad_count", [0, -3])
    def test_zero_or_negative_samples_rejected(self, simulator, spec, bad_count):
        with pytest.raises(SpecificationError, match="n_samples"):
            simulator.envelopes(spec, bad_count, seed=1, normalized_doppler=0.05)

    def test_tiny_doppler_with_unbounded_block_rejected(self, simulator, spec):
        # doppler_block_size refuses to grow the IDFT block beyond its cap.
        with pytest.raises(SpecificationError, match="exceeding the limit"):
            simulator.envelopes(spec, 16, seed=1, normalized_doppler=1e-9)
