"""Edge-case tests for ``Simulator.envelopes`` Doppler mode.

The Doppler path of the session API runs as a one-entry Doppler plan of
the batched engine.  These tests pin down its edges: sample counts not
divisible by the IDFT block length, the single-branch ``N = 1`` case,
the paper's default block length, the README's closed form for the block
length the session once picked by itself, and the error paths (invalid
``f_m``, an empty passband, zero samples).
"""

import math

import numpy as np
import pytest

from repro.api import Simulator
from repro.core import CovarianceSpec
from repro.core.realtime import RealTimeRayleighGenerator
from repro.engine import DecompositionCache, DopplerSpec, SimulationPlan
from repro.exceptions import (
    DopplerError,
    FilterDesignError,
    GenerationError,
    SpecificationError,
)


def _gaussian(simulator, covariance, n_samples, **entry):
    """The Gaussian block of the one-entry plan ``envelopes`` runs."""
    plan = SimulationPlan()
    plan.add(covariance, **entry)
    return simulator.run(plan, n_samples).blocks[0]


@pytest.fixture()
def simulator():
    return Simulator(cache=DecompositionCache())


@pytest.fixture()
def spec():
    return CovarianceSpec.from_covariance_matrix(
        np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    )


class TestBlockHandling:
    def test_non_divisible_sample_count_truncates_a_continuous_record(
        self, simulator, spec
    ):
        """n_samples that is not a multiple of M: blocks are concatenated and
        truncated, matching the looped generator's record prefix."""
        block = _gaussian(
            simulator, spec, 150, seed=9, doppler=DopplerSpec(0.05, n_points=64)
        )
        assert block.samples.shape == (2, 150)
        reference = RealTimeRayleighGenerator(
            spec, normalized_doppler=0.05, n_points=64, rng=9
        ).generate_gaussian(3)  # ceil(150 / 64) = 3 blocks
        assert np.array_equal(reference.samples[:, :150], block.samples)

    def test_bare_doppler_uses_the_paper_block_length(self, simulator, spec):
        """A bare normalized Doppler takes ``DopplerSpec``'s M = 4096."""
        block = simulator.envelopes(spec, 100, seed=3, doppler=0.05)
        assert block.envelopes.shape == (2, 100)
        assert block.metadata["n_points"] == 4096
        reference = RealTimeRayleighGenerator(
            spec, normalized_doppler=0.05, n_points=4096, rng=3
        ).generate_envelopes(1)
        assert np.array_equal(reference.envelopes[:, :100], block.envelopes)

    def test_single_branch_spec(self, simulator):
        """N = 1: one branch, one IDFT stream, scalar coloring."""
        single = CovarianceSpec.from_covariance_matrix(
            np.array([[2.0]], dtype=complex)
        )
        block = _gaussian(
            simulator, single, 70, seed=4, doppler=DopplerSpec(0.1, n_points=64)
        )
        assert block.samples.shape == (1, 70)
        reference = RealTimeRayleighGenerator(
            single, normalized_doppler=0.1, n_points=64, rng=4
        ).generate_gaussian(2)
        assert np.array_equal(reference.samples[:, :70], block.samples)

    def test_compensation_toggle_matches_realtime_generator(self, simulator, spec):
        block = _gaussian(
            simulator,
            spec,
            64,
            seed=5,
            doppler=DopplerSpec(0.05, n_points=64, compensate_variance=False),
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


def _historical_search(n_samples, normalized_doppler):
    """The doubling search that once picked ``envelopes``' block length."""
    n_points = 64
    while n_points < n_samples or int(np.floor(normalized_doppler * n_points)) < 1:
        n_points *= 2
    return n_points


def _readme_rule(n_samples, normalized_doppler):
    """The README's closed form: the smallest power of two ``M`` with
    ``M >= 64``, ``M >= n`` and ``f * M >= 1``."""
    least = max(64, n_samples, math.ceil(1.0 / normalized_doppler))
    return 1 << (least - 1).bit_length()


class TestOldBlockLengthRule:
    """A caller who relied on the automatic block length gets the old bytes
    back by passing the README's ``M`` in a ``DopplerSpec``."""

    @pytest.mark.parametrize("n_samples", [1, 2, 63, 64, 65, 100, 1000, 4096, 100_000])
    @pytest.mark.parametrize(
        "normalized_doppler",
        [0.4999, 0.25, 0.1, 0.05, 1 / 64, 1 / 128, 1 / 512, 0.003, 1e-4, 1e-6],
    )
    def test_readme_rule_reproduces_the_old_automatic_bytes(
        self, simulator, spec, n_samples, normalized_doppler
    ):
        n_points = _readme_rule(n_samples, normalized_doppler)
        assert n_points == _historical_search(n_samples, normalized_doppler)
        block = simulator.envelopes(
            spec,
            n_samples,
            seed=11,
            doppler=DopplerSpec(normalized_doppler, n_points=n_points),
        )
        reference = RealTimeRayleighGenerator(
            spec, normalized_doppler=normalized_doppler, n_points=n_points, rng=11
        ).generate_envelopes(-(-n_samples // n_points))
        assert np.array_equal(reference.envelopes[:, :n_samples], block.envelopes)


class TestErrorPaths:
    @pytest.mark.parametrize("bad_fm", [0.0, -0.05, 0.5, 0.9])
    def test_invalid_normalized_doppler_rejected(self, simulator, spec, bad_fm):
        with pytest.raises((SpecificationError, DopplerError)):
            simulator.envelopes(spec, 64, seed=1, doppler=bad_fm)

    @pytest.mark.parametrize("bad_fm", [0.0, 0.5])
    def test_invalid_doppler_rejected_with_explicit_block_size(
        self, simulator, spec, bad_fm
    ):
        with pytest.raises((SpecificationError, DopplerError)):
            simulator.envelopes(
                spec, 64, seed=1, doppler={"normalized_doppler": bad_fm, "n_points": 64}
            )

    def test_unsatisfiable_doppler_raises_before_generation(self, simulator, spec):
        with pytest.raises(FilterDesignError, match="passband"):
            simulator.envelopes(spec, 10, seed=5, doppler=1e-12)

    @pytest.mark.parametrize("bad_count", [0, -3])
    def test_zero_or_negative_samples_rejected(self, simulator, spec, bad_count):
        with pytest.raises(GenerationError, match="n_samples"):
            simulator.envelopes(spec, bad_count, seed=1, doppler=0.05)
