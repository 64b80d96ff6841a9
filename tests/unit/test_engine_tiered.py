"""The cache contract shared by every tier, checked once per tier.

:class:`repro.engine.tiered.TieredCache` carries the memory LRU, the
counters and maintenance for the decomposition, Doppler-filter and
compiled-plan caches, plus disk promotion and quarantine for the one cache
with a disk tier, the compiled-plan cache.  Each memory test here runs
against all three through their public domain methods, so a tier that
drifts from the contract fails under its own name; the disk tests run
against the plan cache.  The plan cache has a memory tier only when it is
built with a ``cache_dir``, so its memory tests get a fresh directory per
cache.
"""

import numpy as np
import pytest

import repro.engine.filters as filters_module
import repro.engine.plancache as plancache_module
from repro.core.coloring import compute_coloring
from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    SimulationPlan,
    compile_plan,
    compiled_plan_cache_key,
    decomposition_cache_key,
)


def _matrix(index):
    return np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex) * (index + 1)


class _DecompositionTier:
    def make(self, bound=None):
        return DecompositionCache(256 if bound is None else bound)

    def serve(self, cache, index):
        # What the compiler does: look up, and on a miss compute and store.
        key = self.key(index)
        decomposition = cache.lookup(key)
        if decomposition is None:
            decomposition = compute_coloring(_matrix(index))
            cache.store(key, decomposition)
        return decomposition

    def key(self, index):
        return decomposition_cache_key(_matrix(index))

    def arrays(self, value):
        return [value.coloring_matrix, value.effective_covariance]


class _FilterTier:
    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    def make(self, bound=None):
        if bound is not None:
            self._monkeypatch.setattr(filters_module, "FILTER_MEMORY_MAX_BYTES", bound)
        return DopplerFilterCache()

    def serve(self, cache, index):
        return cache.get(64, 0.05 * (index + 1))[0]

    def key(self, index):
        return filters_module._key_hash((64, 0.05 * (index + 1), 0.5))

    def arrays(self, value):
        return [value]


class _PlanTier:
    namespace = "plans"

    def __init__(self, monkeypatch, tmp_path_factory):
        self._monkeypatch = monkeypatch
        self._tmp_path_factory = tmp_path_factory

    def make(self, cache_dir=None, bound=None):
        # A plan cache without a directory is a no-op, so a memory test's
        # cache gets a fresh directory of its own.
        if bound is not None:
            self._monkeypatch.setattr(plancache_module, "DEFAULT_MEMORY_MAX_BYTES", bound)
        if cache_dir is None:
            cache_dir = self._tmp_path_factory.mktemp("plans")
        return CompiledPlanCache(cache_dir)

    def _plan(self, index):
        return SimulationPlan.from_specs([_matrix(index)], seed=index)

    def serve(self, cache, index):
        return compile_plan(
            self._plan(index),
            cache=DecompositionCache(),
            filter_cache=DopplerFilterCache(),
            plan_cache=cache,
        )

    def key(self, index):
        return compiled_plan_cache_key(self._plan(index))

    def arrays(self, value):
        group = value.groups[0]
        return [
            group.coloring_stack,
            group.sample_variances,
            group.decompositions[0].coloring_matrix,
            group.decompositions[0].effective_covariance,
        ]


@pytest.fixture(params=["decompositions", "filters", "plans"])
def tier(request, monkeypatch, tmp_path_factory):
    if request.param == "decompositions":
        return _DecompositionTier()
    if request.param == "filters":
        return _FilterTier(monkeypatch)
    return _PlanTier(monkeypatch, tmp_path_factory)


@pytest.fixture(params=["decompositions", "filters"])
def memory_only_tier(request, monkeypatch):
    """The tiers without a disk namespace."""
    if request.param == "decompositions":
        return _DecompositionTier()
    return _FilterTier(monkeypatch)


def _unit_weight(tier):
    """Weight of one entry (all entries of a tier have equal shapes)."""
    cache = tier.make()
    tier.serve(cache, 0)
    return cache.stats.weight


def _same_bytes(tier, first, second):
    return all(
        a.tobytes() == b.tobytes()
        for a, b in zip(tier.arrays(first), tier.arrays(second))
    )


@pytest.fixture
def plan_tier(monkeypatch, tmp_path_factory):
    """The one tier with a disk namespace."""
    return _PlanTier(monkeypatch, tmp_path_factory)


def _files(tmp_path, tier, suffix="npz"):
    return sorted((tmp_path / tier.namespace).glob(f"*.{suffix}"))


class TestMemoryBound:
    def test_weighted_lru_bound_and_evictions(self, tier):
        unit = _unit_weight(tier)
        assert unit > 0
        cache = tier.make(bound=2 * unit)
        tier.serve(cache, 0)
        tier.serve(cache, 1)
        tier.serve(cache, 0)  # refresh 0: entry 1 is now least recently used
        tier.serve(cache, 2)  # evicts 1
        stats = cache.stats
        assert (stats.size, stats.weight, stats.evictions) == (2, 2 * unit, 1)
        assert (stats.hits, stats.misses) == (1, 3)
        assert tier.key(0) in cache and tier.key(2) in cache
        assert tier.key(1) not in cache
        tier.serve(cache, 1)  # evicted: computed again, or loaded from disk
        assert cache.stats.memory_hits == 1

    def test_entry_heavier_than_the_bound_is_not_kept(self, tier):
        cache = tier.make(bound=_unit_weight(tier) - 1)
        tier.serve(cache, 0)
        stats = cache.stats
        assert (stats.size, stats.weight, stats.evictions) == (0, 0, 0)


class TestDiskTier:
    def test_disk_hit_promotes_into_memory(self, plan_tier, tmp_path):
        tier = plan_tier
        fresh = tier.serve(tier.make(tmp_path), 0)
        cache = tier.make(tmp_path)  # a new process: empty memory tier
        from_disk = tier.serve(cache, 0)
        from_memory = tier.serve(cache, 0)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (2, 0)
        assert (stats.disk_hits, stats.memory_hits) == (1, 1)
        assert stats.size == 1
        # Served from memory, not re-read: the very arrays of the disk load.
        assert all(
            a is b for a, b in zip(tier.arrays(from_disk), tier.arrays(from_memory))
        )
        assert _same_bytes(tier, fresh, from_disk)

    def test_memory_hit_does_not_touch_the_disk_tier(self, plan_tier, tmp_path):
        tier = plan_tier
        cache = tier.make(tmp_path)
        assert cache.cache_dir == tmp_path
        tier.serve(cache, 0)  # miss: stored in both tiers
        assert cache.clear_disk() == 1
        tier.serve(cache, 0)  # memory hit: no probe, no re-spill
        assert cache.disk_usage() == (0, 0)
        stats = cache.stats
        assert (stats.memory_hits, stats.disk_misses) == (1, 1)

    def test_corrupt_entry_is_a_quarantined_miss(self, plan_tier, tmp_path):
        tier = plan_tier
        fresh = tier.serve(tier.make(tmp_path), 0)
        (path,) = _files(tmp_path, tier)
        path.write_bytes(b"not an npz archive")
        cache = tier.make(tmp_path)
        recomputed = tier.serve(cache, 0)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (0, 1)
        assert (stats.disk_misses, stats.disk_corruptions) == (1, 1)
        assert _files(tmp_path, tier, "quarantine")
        assert _same_bytes(tier, fresh, recomputed)
        # The recomputed entry re-spilled over the corrupt one.
        again = tier.make(tmp_path)
        tier.serve(again, 0)
        assert again.stats.disk_hits == 1

    def test_invalidate_clears_both_tiers(self, plan_tier, tmp_path):
        tier = plan_tier
        cache = tier.make(tmp_path)
        tier.serve(cache, 0)
        cache.invalidate(tier.key(0))
        assert len(cache) == 0
        assert _files(tmp_path, tier) == []
        assert _files(tmp_path, tier, "quarantine")


class TestFrozenPayloads:
    def test_computed_values_are_read_only(self, tier):
        computed = tier.serve(tier.make(), 0)
        for array in tier.arrays(computed):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_loaded_values_are_read_only(self, plan_tier, tmp_path):
        tier = plan_tier
        tier.serve(tier.make(tmp_path), 0)
        loaded = tier.serve(tier.make(tmp_path), 0)
        for array in tier.arrays(loaded):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0


class TestMaintenance:
    def test_clear_and_reset_stats(self, tier):
        cache = tier.make()
        tier.serve(cache, 0)
        tier.serve(cache, 1)
        assert cache.clear() == 2  # entries only: counters kept
        assert len(cache) == 0
        assert cache.stats.misses == 2

        cache.reset_stats()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

    def test_clear_keeps_disk_and_clear_disk_empties_it(self, plan_tier, tmp_path):
        tier = plan_tier
        cache = tier.make(tmp_path)
        tier.serve(cache, 0)
        tier.serve(cache, 1)
        entries, n_bytes = cache.disk_usage()
        assert entries == 2 and n_bytes > 0

        assert cache.clear() == 2  # memory only: counters and disk kept
        assert cache.disk_usage()[0] == 2

        assert cache.clear_disk() == 2
        assert cache.disk_usage() == (0, 0)

        cache.reset_stats()
        stats = cache.stats
        assert (stats.disk_hits, stats.disk_misses, stats.disk_corruptions) == (0, 0, 0)

    def test_reset_stats_keeps_entries(self, tier):
        cache = tier.make()
        tier.serve(cache, 0)
        cache.reset_stats()
        assert len(cache) == 1
        tier.serve(cache, 0)
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)


class TestStatsFields:
    def test_field_meanings(self, tier):
        unit = _unit_weight(tier)
        cache = tier.make()
        tier.serve(cache, 0)  # miss: computed and stored
        tier.serve(cache, 0)  # memory hit
        tier.serve(cache, 1)  # miss
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.memory_hits) == (1, 2, 1)
        assert stats.lookups == 3 and stats.hit_rate == pytest.approx(1 / 3)
        assert (stats.size, stats.weight, stats.evictions) == (2, 2 * unit, 0)
        assert stats.inflight_coalesced == 0  # no concurrent computation

    def test_disk_field_meanings(self, plan_tier, tmp_path):
        tier = plan_tier
        unit = _unit_weight(tier)
        warm = tier.make(tmp_path)
        tier.serve(warm, 0)  # miss: computed, stored in both tiers
        tier.serve(warm, 0)  # memory hit
        stats = warm.stats
        assert (stats.hits, stats.misses, stats.memory_hits) == (1, 1, 1)
        assert (stats.disk_hits, stats.disk_misses) == (0, 1)
        assert (stats.size, stats.weight) == (1, unit)
        assert stats.disk_entries == 1 and stats.disk_bytes > 0

        cache = tier.make(tmp_path)
        tier.serve(cache, 0)  # disk hit
        tier.serve(cache, 1)  # miss in both tiers
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert (stats.disk_hits, stats.disk_misses, stats.memory_hits) == (1, 1, 0)
        assert stats.lookups == 2 and stats.hit_rate == 0.5
        assert (stats.size, stats.weight, stats.evictions) == (2, 2 * unit, 0)
        assert stats.disk_entries == 2

    def test_memory_only_cache_counts_no_disk_activity(self, memory_only_tier):
        tier = memory_only_tier
        cache = tier.make()
        tier.serve(cache, 0)
        tier.serve(cache, 0)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert (stats.disk_hits, stats.disk_misses) == (0, 0)
        assert (stats.disk_entries, stats.disk_bytes) == (0, 0)

    def test_detached_plan_cache_counts_nothing(self, plan_tier):
        cache = CompiledPlanCache()
        assert not cache.enabled and cache.memory_bound == 0
        plan_tier.serve(cache, 0)
        plan_tier.serve(cache, 0)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert (stats.disk_misses, stats.disk_entries) == (0, 0)
