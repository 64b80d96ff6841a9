"""Unit tests for the closed-form Doppler IDFT block-size computation."""

import numpy as np
import pytest

from repro.api import Simulator
from repro.engine import doppler_block_size
from repro.exceptions import SpecificationError


def _reference_loop(n_samples, normalized_doppler):
    """The historical doubling search the closed form replaced."""
    n_points = 64
    while n_points < n_samples or int(np.floor(normalized_doppler * n_points)) < 1:
        n_points *= 2
    return n_points


class TestDopplerBlockSize:
    @pytest.mark.parametrize("n_samples", [1, 2, 63, 64, 65, 100, 1000, 4096, 100_000])
    @pytest.mark.parametrize(
        "normalized_doppler",
        [0.4999, 0.25, 0.1, 0.05, 1 / 64, 1 / 128, 1 / 512, 0.003, 1e-4, 1e-6],
    )
    def test_matches_historical_search(self, n_samples, normalized_doppler):
        assert doppler_block_size(n_samples, normalized_doppler) == _reference_loop(
            n_samples, normalized_doppler
        )

    def test_result_is_power_of_two_and_satisfies_constraints(self):
        n_points = doppler_block_size(300, 0.01)
        assert n_points & (n_points - 1) == 0
        assert n_points >= 300
        assert int(np.floor(0.01 * n_points)) >= 1

    @pytest.mark.parametrize("bad_doppler", [0.0, -0.1, 0.5, 0.75, 1.0])
    def test_rejects_out_of_range_doppler(self, bad_doppler):
        with pytest.raises(SpecificationError):
            doppler_block_size(100, bad_doppler)

    def test_rejects_unsatisfiable_passband(self):
        # A 1e-9 normalized Doppler would need a ~2**30-point block.
        with pytest.raises(SpecificationError, match="passband"):
            doppler_block_size(100, 1e-9)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(SpecificationError):
            doppler_block_size(0, 0.05)

    def test_block_limit_is_inclusive(self):
        limit = 1 << 26
        assert doppler_block_size(1, 1.0 / limit) == limit
        with pytest.raises(SpecificationError, match=str(limit)):
            doppler_block_size(1, 0.5 / limit)


class TestPipelineDopplerMode:
    def test_doppler_generation_uses_closed_form(self):
        block = Simulator().envelopes(
            np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
            200,
            normalized_doppler=0.05,
            seed=5,
        )
        assert block.envelopes.shape == (2, 200)

    def test_unsatisfiable_doppler_raises_before_generation(self):
        with pytest.raises(SpecificationError, match="passband"):
            Simulator().envelopes(
                np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
                10,
                normalized_doppler=1e-12,
                seed=5,
            )
