"""Unit tests for the decomposition cache: keys, LRU behaviour, counters."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.coloring import compute_coloring
from repro.engine import (
    DecompositionCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
    compile_plan,
    compiled_plan_cache_key,
    decomposition_cache_key,
)

#: The pinned keys' matrix.  ``plans/`` directories written by earlier
#: releases keep hitting only while these keys stay byte-identical.
PINNED_MATRIX = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
PINNED_DECOMPOSITION_KEY = "190964bccade6ac8a63a2b3a57e6bf2a00e6db9ad77293c2db7c4d3a8d193735"
PINNED_PLAN_KEY = "25b965bea2843eb350e5789196cb9836c476f32cde7912db8cf05872055250b6"

#: Prints the pinned matrix's decomposition key after scaling one constant
#: of ``repro.config`` by a factor, before anything reads it.
_KEY_AFTER_EDIT = """
import sys
import numpy as np
import repro.config as config
name, factor = sys.argv[1], float(sys.argv[2])
setattr(config, name, getattr(config, name) * factor)
from repro.engine import decomposition_cache_key
print(decomposition_cache_key(np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)))
"""


def _key_after_edit(name: str, factor: float) -> str:
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _KEY_AFTER_EDIT, name, repr(factor)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return completed.stdout.strip()


@pytest.fixture()
def matrix():
    return np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)


class TestCacheKey:
    def test_deterministic(self, matrix):
        assert decomposition_cache_key(matrix) == decomposition_cache_key(matrix.copy())

    def test_sensitive_to_matrix_content(self, matrix):
        other = matrix.copy()
        other[0, 1] += 1e-15
        assert decomposition_cache_key(matrix) != decomposition_cache_key(other)

    def test_sensitive_to_methods(self, matrix):
        base = decomposition_cache_key(matrix)
        assert decomposition_cache_key(matrix, method="cholesky") != base
        assert decomposition_cache_key(matrix, psd_method="epsilon") != base
        assert decomposition_cache_key(matrix, epsilon=1e-3) != base

    def test_keys_are_pinned(self):
        assert decomposition_cache_key(PINNED_MATRIX) == PINNED_DECOMPOSITION_KEY
        plan = SimulationPlan.from_specs([PINNED_MATRIX, 2 * PINNED_MATRIX], seed=3)
        assert compiled_plan_cache_key(plan) == PINNED_PLAN_KEY

    def test_unedited_constants_give_the_pinned_key_in_a_fresh_process(self):
        assert _key_after_edit("EIG_CLIP_TOL", 1.0) == PINNED_DECOMPOSITION_KEY

    @pytest.mark.parametrize(
        "name", ["EIG_CLIP_TOL", "PSD_TOL", "HERMITIAN_ATOL", "HERMITIAN_RTOL"]
    )
    def test_editing_a_decomposition_tolerance_changes_the_key(self, name):
        """A tolerance edit must miss every stored ``plans/`` artifact."""
        assert _key_after_edit(name, 10.0) != PINNED_DECOMPOSITION_KEY

    def test_sensitive_to_shape(self):
        flat = np.eye(4, dtype=complex)
        assert decomposition_cache_key(flat) != decomposition_cache_key(np.eye(2, dtype=complex))


class TestCacheBehaviour:
    def test_miss_then_hit(self, matrix):
        cache = DecompositionCache()
        key = decomposition_cache_key(matrix)
        assert cache.lookup(key) is None
        decomposition = compute_coloring(matrix)
        cache.store(key, decomposition)
        assert cache.lookup(key) is decomposition
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_compiled_entry_equals_fresh_computation(self, matrix):
        # What the batched compiler stores is what the single-matrix
        # pipeline computes.
        cache = DecompositionCache()
        compile_plan(SimulationPlan.from_specs([matrix], seed=1), cache=cache)
        cached = cache.lookup(decomposition_cache_key(matrix))
        fresh = compute_coloring(matrix)
        assert np.array_equal(cached.coloring_matrix, fresh.coloring_matrix)
        assert np.array_equal(cached.effective_covariance, fresh.effective_covariance)

    def test_different_methods_cached_separately(self, matrix):
        cache = DecompositionCache()
        for method in ("eigen", "cholesky"):
            key = decomposition_cache_key(matrix, method=method)
            assert cache.lookup(key) is None
            cache.store(key, compute_coloring(matrix, method=method))
        eigen = cache.lookup(decomposition_cache_key(matrix, method="eigen"))
        cholesky = cache.lookup(decomposition_cache_key(matrix, method="cholesky"))
        assert eigen.method == "eigen"
        assert cholesky.method == "cholesky"
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_maxsize_zero_disables_storage(self, matrix):
        cache = DecompositionCache(maxsize=0)
        key = decomposition_cache_key(matrix)
        for _ in range(2):
            assert cache.lookup(key) is None
            cache.store(key, compute_coloring(matrix))
        stats = cache.stats
        assert (stats.hits, stats.misses) == (0, 2)
        assert len(cache) == 0

    def test_doppler_mode_does_not_change_cache_keys(self):
        """A Doppler entry and a snapshot entry over the same matrix share
        one decomposition — the cache key is Doppler-agnostic."""
        # Not PSD, so the shared decomposition includes the Section 4.2 repair.
        matrix = np.array(
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]], dtype=complex
        )
        cache = DecompositionCache()
        snapshot_plan = SimulationPlan.from_specs([matrix], seed=1)
        SimulationEngine(cache=cache).run(snapshot_plan, 4)
        doppler_plan = SimulationPlan.from_specs(
            [matrix], seed=2, doppler=DopplerSpec(0.05, 64)
        )
        result = SimulationEngine(cache=cache).run(doppler_plan, 4)
        assert result.compile_report.cache_hits == 1
        assert result.compile_report.cache_misses == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            DecompositionCache(maxsize=-1)

    def test_contains_by_key(self, matrix):
        cache = DecompositionCache()
        key = decomposition_cache_key(matrix)
        assert key not in cache
        cache.store(key, compute_coloring(matrix))
        assert key in cache


class TestStoreFreezesArrays:
    """Cached arrays must be read-only in *every* configuration.

    Regression test: ``store`` used to return early for ``maxsize == 0``
    *before* freezing, so cache-disabled runs handed out writeable arrays
    while cached runs handed out frozen ones — an in-place mutation
    corrupted results only in one configuration.
    """

    @staticmethod
    def _stored(matrix, maxsize):
        decomposition = compute_coloring(matrix)
        DecompositionCache(maxsize=maxsize).store(
            decomposition_cache_key(matrix), decomposition
        )
        return decomposition

    @pytest.mark.parametrize("maxsize", [0, 256])
    def test_writeable_flag_matches_across_configurations(self, matrix, maxsize):
        decomposition = self._stored(matrix, maxsize)
        assert not decomposition.coloring_matrix.flags.writeable
        assert not decomposition.effective_covariance.flags.writeable

    def test_mutation_fails_loudly_with_disabled_cache(self, matrix):
        decomposition = self._stored(matrix, 0)
        with pytest.raises(ValueError):
            decomposition.coloring_matrix[0, 0] = 999.0
