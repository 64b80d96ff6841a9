"""Unit tests for the decomposition cache: keys, LRU behaviour, counters."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULTS
from repro.core.coloring import compute_coloring
from repro.engine import DecompositionCache, decomposition_cache_key


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

    def test_sensitive_to_tolerances(self, matrix):
        overridden = dataclasses.replace(DEFAULTS, eig_clip_tol=1e-9)
        assert decomposition_cache_key(matrix) != decomposition_cache_key(
            matrix, defaults=overridden
        )

    def test_sensitive_to_shape(self):
        flat = np.eye(4, dtype=complex)
        assert decomposition_cache_key(flat) != decomposition_cache_key(np.eye(2, dtype=complex))


class TestCacheBehaviour:
    def test_miss_then_hit(self, matrix):
        cache = DecompositionCache()
        first = cache.coloring_for(matrix)
        second = cache.coloring_for(matrix)
        assert second is first
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_cached_equals_fresh_computation(self, matrix):
        cache = DecompositionCache()
        cached = cache.coloring_for(matrix)
        fresh = compute_coloring(matrix)
        assert np.array_equal(cached.coloring_matrix, fresh.coloring_matrix)
        assert np.array_equal(cached.effective_covariance, fresh.effective_covariance)

    def test_different_methods_cached_separately(self, matrix):
        cache = DecompositionCache()
        eigen = cache.coloring_for(matrix, method="eigen")
        cholesky = cache.coloring_for(matrix, method="cholesky")
        assert eigen.method == "eigen"
        assert cholesky.method == "cholesky"
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_maxsize_zero_disables_storage(self, matrix):
        cache = DecompositionCache(maxsize=0)
        cache.coloring_for(matrix)
        cache.coloring_for(matrix)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (0, 2)
        assert len(cache) == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            DecompositionCache(maxsize=-1)

    def test_contains_by_key(self, matrix):
        cache = DecompositionCache()
        key = decomposition_cache_key(matrix)
        assert key not in cache
        cache.coloring_for(matrix)
        assert key in cache


class TestStoreFreezesArrays:
    """Cached arrays must be read-only in *every* configuration.

    Regression test: ``store`` used to return early for ``maxsize == 0``
    *before* freezing, so cache-disabled runs handed out writeable arrays
    while cached runs handed out frozen ones — an in-place mutation
    corrupted results only in one configuration.
    """

    @pytest.mark.parametrize("maxsize", [0, 256])
    def test_writeable_flag_matches_across_configurations(self, matrix, maxsize):
        cache = DecompositionCache(maxsize=maxsize)
        decomposition = cache.coloring_for(matrix)
        assert not decomposition.coloring_matrix.flags.writeable
        assert not decomposition.effective_covariance.flags.writeable

    def test_mutation_fails_loudly_with_disabled_cache(self, matrix):
        decomposition = DecompositionCache(maxsize=0).coloring_for(matrix)
        with pytest.raises(ValueError):
            decomposition.coloring_matrix[0, 0] = 999.0
