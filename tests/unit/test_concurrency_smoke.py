"""Concurrency smoke tests — the dynamic complement to ``lock-discipline``.

Eight threads hammer the two lock-guarded caches the reprolint rule
protects statically (:class:`CompiledPlanCache`'s memory tier, over its
disk tier, and :class:`DopplerFilterCache`), interleaving lookups, stores,
and invalidations, and assert the stats counters stay consistent: every
probe lands in exactly one of hits/misses, and the resident byte count
never goes negative — the invariants an unguarded read/write would break
first.
"""

import threading

import numpy as np
import pytest

from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    SimulationPlan,
    compile_plan,
    compiled_plan_cache_key,
)

N_THREADS = 8
N_ITERATIONS = 60


def _hammer(worker):
    """Run ``worker(thread_index)`` on N_THREADS threads, re-raising errors."""
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def body(index):
        try:
            barrier.wait(timeout=30)
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(index,)) for index in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "worker deadlocked"
    if errors:
        raise errors[0]


class TestCompiledPlanCacheMemoryTier:
    @pytest.fixture()
    def compiled_plan(self):
        base = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)
        plan = SimulationPlan()
        plan.add(base, seed=11)
        plan.add(2.0 * base, seed=12)
        compiled = compile_plan(
            plan,
            cache=DecompositionCache(),
            filter_cache=DopplerFilterCache(),
            plan_cache=CompiledPlanCache(),
        )
        return plan, compiled

    def test_interleaved_get_store_invalidate_keeps_stats_consistent(
        self, compiled_plan, tmp_path
    ):
        plan, compiled = compiled_plan
        cache = CompiledPlanCache(tmp_path)
        key = compiled_plan_cache_key(plan)
        lookup_counts = [0] * N_THREADS
        byte_samples = []

        def worker(index):
            for iteration in range(N_ITERATIONS):
                step = (index + iteration) % 4
                if step == 0:
                    cache.put(compiled, key)
                elif step == 3 and index % 2:
                    cache.invalidate(key)
                else:
                    served = cache.lookup(plan, key)
                    lookup_counts[index] += 1
                    if served is not None:
                        assert served.n_entries == compiled.n_entries
                stats = cache.stats
                entries, resident = stats.size, stats.weight
                assert entries >= 0
                assert resident >= 0, "memory byte counter went negative"
                byte_samples.append(resident)

        _hammer(worker)

        stats = cache.stats
        assert stats.weight >= 0
        assert stats.size >= 0
        # Every lookup counted exactly one hit or miss, whichever tier
        # served it.
        assert stats.hits + stats.misses == sum(lookup_counts)
        assert max(byte_samples) <= cache.memory_bound

    def test_final_state_still_serves_bit_identical_plans(
        self, compiled_plan, tmp_path
    ):
        plan, compiled = compiled_plan
        cache = CompiledPlanCache(tmp_path)
        key = compiled_plan_cache_key(plan)

        def worker(index):
            for _ in range(N_ITERATIONS):
                cache.put(compiled, key)
                cache.lookup(plan, key)

        _hammer(worker)
        served = cache.lookup(plan, key)
        assert served is not None
        for group, fresh_group in zip(served.groups, compiled.groups):
            np.testing.assert_array_equal(
                group.coloring_stack, fresh_group.coloring_stack
            )


class TestDopplerFilterCache:
    KEYS = ((64, 0.05), (64, 0.1), (128, 0.05))

    def test_interleaved_get_and_clear_keeps_stats_consistent(self):
        cache = DopplerFilterCache()
        get_counts = [0] * N_THREADS

        def worker(index):
            for iteration in range(N_ITERATIONS):
                n_points, doppler = self.KEYS[(index + iteration) % len(self.KEYS)]
                coefficients, variance, _was_cached = cache.get(n_points, doppler)
                get_counts[index] += 1
                assert coefficients.shape == (n_points,)
                assert variance > 0
                assert not coefficients.flags.writeable
                if index == 0 and iteration % 20 == 19:
                    cache.clear()

        _hammer(worker)

        stats = cache.stats
        # Every get() recorded exactly one hit or miss, even racing clear().
        assert stats.hits + stats.misses == sum(get_counts)
        assert stats.lookups == stats.hits + stats.misses
        # At least one build per distinct key; clears may force rebuilds.
        assert stats.misses >= len(self.KEYS)

    def test_concurrent_gets_share_one_frozen_array_per_key(self):
        cache = DopplerFilterCache()
        seen = [None] * N_THREADS

        def worker(index):
            coefficients, _variance, _was_cached = cache.get(64, 0.05)
            seen[index] = coefficients

        _hammer(worker)
        assert len(cache) == 1
        first = seen[0]
        for coefficients in seen[1:]:
            np.testing.assert_array_equal(coefficients, first)
