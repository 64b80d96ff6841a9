"""Unit tests for the process-wide Young–Beaulieu filter cache."""

import numpy as np
import pytest

from repro.channels.doppler import filter_output_variance, young_beaulieu_filter
from repro.core.realtime import RealTimeRayleighGenerator
from repro.engine import (
    DecompositionCache,
    DopplerFilterCache,
    DopplerSpec,
    SimulationPlan,
    compile_plan,
    default_filter_cache,
)


@pytest.fixture()
def matrix():
    return np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)


class TestDopplerFilterCache:
    def test_miss_builds_bit_identical_filter(self):
        cache = DopplerFilterCache()
        coefficients, variance, was_cached = cache.get(64, 0.05)
        assert not was_cached
        fresh = young_beaulieu_filter(64, 0.05)
        assert np.array_equal(coefficients, fresh)
        assert variance == filter_output_variance(fresh, 0.5)

    def test_hit_shares_the_same_array(self):
        cache = DopplerFilterCache()
        first, _, _ = cache.get(64, 0.05)
        second, _, was_cached = cache.get(64, 0.05)
        assert was_cached
        assert second is first

    def test_cached_coefficients_are_frozen(self):
        coefficients, _, _ = DopplerFilterCache().get(64, 0.05)
        assert not coefficients.flags.writeable
        with pytest.raises(ValueError):
            coefficients[0] = 1.0

    def test_distinct_keys_build_distinct_filters(self):
        cache = DopplerFilterCache()
        cache.get(64, 0.05)
        cache.get(64, 0.1)
        cache.get(128, 0.05)
        cache.get(64, 0.05, input_variance_per_dim=1.0)  # same filter, new variance
        stats = cache.stats
        assert stats.misses == 4
        assert len(cache) == 4

    def test_counters(self):
        cache = DopplerFilterCache()
        cache.get(64, 0.05)
        cache.get(64, 0.05)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2

    def test_invalid_parameters_still_raise(self):
        from repro.exceptions import DopplerError

        with pytest.raises(DopplerError):
            DopplerFilterCache().get(64, 0.9)

    def test_memory_tier_is_byte_bounded(self):
        # Regression: the memory tier was an unbounded dict, so every
        # distinct f_m a client requested stayed resident for good.
        from repro.engine.filters import FILTER_MEMORY_MAX_BYTES

        n_points = 16384
        capacity = FILTER_MEMORY_MAX_BYTES // (n_points * 8)
        n_filters = capacity + 8
        cache = DopplerFilterCache()
        first, _, _ = cache.get(n_points, 0.01)
        first_bytes = first.tobytes()
        for index in range(1, n_filters):
            cache.get(n_points, 0.01 + index * 1e-5)
        stats = cache.stats
        assert stats.weight <= FILTER_MEMORY_MAX_BYTES
        assert stats.size == capacity
        assert stats.evictions == n_filters - capacity
        # The least recently used filter was evicted; rebuilding it gives
        # the same bytes.
        rebuilt, _, was_cached = cache.get(n_points, 0.01)
        assert not was_cached
        assert rebuilt.tobytes() == first_bytes

    def test_default_cache_is_process_wide(self):
        assert default_filter_cache() is default_filter_cache()


class TestCompileIntegration:
    def _doppler_plan(self, matrix):
        plan = SimulationPlan()
        plan.add(matrix, seed=1, doppler=DopplerSpec(0.05, 64))
        plan.add(2 * matrix, seed=2, doppler=DopplerSpec(0.05, 64))
        return plan

    def test_compile_reports_shared_cache_hits(self, matrix):
        filter_cache = DopplerFilterCache()
        plan = self._doppler_plan(matrix)
        first = compile_plan(
            plan, cache=DecompositionCache(), filter_cache=filter_cache
        )
        second = compile_plan(
            plan, cache=DecompositionCache(), filter_cache=filter_cache
        )
        # Both passes resolve one unique filter key; only the first builds it.
        assert first.report.doppler_filters_built == 1
        assert first.report.doppler_filter_cache_hits == 0
        assert second.report.doppler_filters_built == 1
        assert second.report.doppler_filter_cache_hits == 1
        assert filter_cache.stats.misses == 1

    def test_compiles_share_the_filter_array_across_passes(self, matrix):
        filter_cache = DopplerFilterCache()
        plan = self._doppler_plan(matrix)
        first = compile_plan(
            plan, cache=DecompositionCache(), filter_cache=filter_cache
        )
        second = compile_plan(
            plan, cache=DecompositionCache(), filter_cache=filter_cache
        )
        assert second.groups[0].doppler_filter is first.groups[0].doppler_filter

    def test_snapshot_plan_reports_no_filter_activity(self, matrix):
        plan = SimulationPlan()
        plan.add(matrix, seed=1)
        compiled = compile_plan(
            plan, cache=DecompositionCache(), filter_cache=DopplerFilterCache()
        )
        assert compiled.report.doppler_filters_built == 0
        assert compiled.report.doppler_filter_cache_hits == 0


class TestRealtimeIntegration:
    def test_generators_share_one_build(self, matrix):
        filter_cache = DopplerFilterCache()
        first = RealTimeRayleighGenerator(
            matrix, normalized_doppler=0.05, n_points=64, rng=1,
            cache=DecompositionCache(maxsize=0), filter_cache=filter_cache,
        )
        second = RealTimeRayleighGenerator(
            matrix, normalized_doppler=0.05, n_points=64, rng=2,
            cache=DecompositionCache(maxsize=0), filter_cache=filter_cache,
        )
        assert filter_cache.stats.misses == 1
        assert second._filter is first._filter

    def test_cached_filter_keeps_bit_identity(self, matrix):
        # The shared filter must not change what the generator produces.
        filter_cache = DopplerFilterCache()
        filter_cache.get(64, 0.05)  # pre-warm so the generator gets a hit
        warm = RealTimeRayleighGenerator(
            matrix, normalized_doppler=0.05, n_points=64, rng=7,
            cache=DecompositionCache(maxsize=0), filter_cache=filter_cache,
        ).generate_gaussian(2)
        cold = RealTimeRayleighGenerator(
            matrix, normalized_doppler=0.05, n_points=64, rng=7,
            cache=DecompositionCache(maxsize=0), filter_cache=DopplerFilterCache(),
        ).generate_gaussian(2)
        assert np.array_equal(warm.samples, cold.samples)

    def test_output_variance_matches_eq19(self, matrix):
        generator = RealTimeRayleighGenerator(
            matrix, normalized_doppler=0.05, n_points=64, rng=1,
            cache=DecompositionCache(maxsize=0),
            filter_cache=DopplerFilterCache(),
        )
        expected = filter_output_variance(young_beaulieu_filter(64, 0.05), 0.5)
        assert generator.filter_output_variance == expected
