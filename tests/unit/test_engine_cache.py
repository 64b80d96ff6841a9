"""Unit tests for the decomposition cache: keys, LRU behaviour, counters, disk tier."""

import numpy as np
import pytest

from repro.config import with_overrides
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
        overridden = with_overrides(eig_clip_tol=1e-9)
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

    def test_disk_promoted_entries_are_frozen(self, matrix, tmp_path):
        DecompositionCache(cache_dir=tmp_path).coloring_for(matrix)
        restored = DecompositionCache(cache_dir=tmp_path).coloring_for(matrix)
        assert not restored.coloring_matrix.flags.writeable
        assert not restored.effective_covariance.flags.writeable


class TestDiskTier:
    def _disk_files(self, tmp_path):
        return sorted((tmp_path / "decompositions").glob("*.npz"))

    def test_store_spills_to_disk(self, matrix, tmp_path):
        cache = DecompositionCache(cache_dir=tmp_path)
        cache.coloring_for(matrix)
        assert len(self._disk_files(tmp_path)) == 1
        stats = cache.stats
        assert stats.disk_entries == 1
        assert stats.disk_bytes > 0

    def test_fresh_process_equivalent_hits_disk(self, matrix, tmp_path):
        DecompositionCache(cache_dir=tmp_path).coloring_for(matrix)
        # A second cache over the same directory models a new process.
        second = DecompositionCache(cache_dir=tmp_path)
        restored = second.coloring_for(matrix)
        stats = second.stats
        assert (stats.hits, stats.misses, stats.disk_hits) == (1, 0, 1)
        fresh = compute_coloring(matrix)
        assert restored.coloring_matrix.tobytes() == fresh.coloring_matrix.tobytes()
        assert (
            restored.effective_covariance.tobytes()
            == fresh.effective_covariance.tobytes()
        )
        assert (
            restored.requested_covariance.tobytes()
            == fresh.requested_covariance.tobytes()
        )
        assert restored.method == fresh.method
        assert restored.was_repaired == fresh.was_repaired
        assert restored.min_eigenvalue == fresh.min_eigenvalue
        assert restored.extra == fresh.extra

    def test_disk_only_cache(self, matrix, tmp_path):
        # maxsize=0 with a cache_dir is a pure disk cache: nothing retained
        # in memory, but lookups are still served from disk.
        cache = DecompositionCache(maxsize=0, cache_dir=tmp_path)
        cache.coloring_for(matrix)
        cache.coloring_for(matrix)
        stats = cache.stats
        assert len(cache) == 0
        assert stats.hits == 1
        assert stats.disk_hits == 1

    def test_lru_byte_bound_evicts_oldest(self, tmp_path):
        import os
        import time

        cache = DecompositionCache(cache_dir=tmp_path, disk_max_bytes=1)
        matrices = [np.eye(2, dtype=complex) * (index + 1) for index in range(3)]
        for index, m in enumerate(matrices):
            cache.coloring_for(m)
            # Separate mtimes deterministically (filesystem clocks are coarse).
            for path in self._disk_files(tmp_path):
                os.utime(path, (time.time() - 100 + index, time.time() - 100 + index))
        # A 1-byte bound can hold no file: every store evicts down to the
        # newest entry's write, then that file itself gets removed next time.
        assert cache.stats.disk_evictions >= 2
        assert len(self._disk_files(tmp_path)) <= 1

    def test_unusable_cache_dir_degrades_to_memory_only(self, matrix, tmp_path):
        # cache_dir pointing at a regular file: every disk op must fail
        # soft, leaving a working memory-only cache.
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        cache = DecompositionCache(cache_dir=blocker)
        first = cache.coloring_for(matrix)
        second = cache.coloring_for(matrix)
        assert second is first
        assert cache.stats.disk_entries == 0

    def test_failed_spill_is_not_retried_per_hit(self, matrix, tmp_path, monkeypatch):
        from repro.engine.store import ArtifactStore

        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = DecompositionCache(cache_dir=blocker)
        cache.coloring_for(matrix)  # store: spill attempt fails
        calls = []
        original = ArtifactStore._write
        monkeypatch.setattr(
            ArtifactStore,
            "_write",
            lambda self, *a: calls.append(1) or original(self, *a),
        )
        for _ in range(5):
            cache.coloring_for(matrix)  # memory hits
        assert calls == []  # the failed spill was remembered, not re-paid

    def test_reattaching_tier_retries_spills(self, matrix, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = DecompositionCache(cache_dir=blocker)
        cache.coloring_for(matrix)
        cache.set_cache_dir(tmp_path / "good")  # new, writable directory
        cache.coloring_for(matrix)  # memory hit -> fresh spill attempt
        assert len(list((tmp_path / "good" / "decompositions").glob("*.npz"))) == 1

    def test_clear_disk_sweeps_orphaned_tmp_files(self, matrix, tmp_path):
        cache = DecompositionCache(cache_dir=tmp_path)
        cache.coloring_for(matrix)
        orphan = tmp_path / "decompositions" / "deadbeef.tmp"
        orphan.write_bytes(b"half-written by a dead worker")
        assert cache.clear_disk() == 1  # counts entries, not tmp leftovers
        assert not orphan.exists()

    def test_eviction_sweeps_stale_tmp_files(self, matrix, tmp_path):
        import os
        import time

        cache = DecompositionCache(cache_dir=tmp_path, disk_max_bytes=1)
        orphan = tmp_path / "decompositions"
        orphan.mkdir(parents=True)
        stale = orphan / "deadbeef.tmp"
        stale.write_bytes(b"old")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = orphan / "cafe.tmp"
        fresh.write_bytes(b"in flight")
        cache.coloring_for(matrix)  # triggers an eviction pass (1-byte bound)
        assert not stale.exists()  # hour-old orphan swept
        assert fresh.exists()  # recent file presumed in-flight, kept

    def test_set_cache_dir_attaches_existing_entries(self, matrix, tmp_path):
        DecompositionCache(cache_dir=tmp_path).coloring_for(matrix)
        cache = DecompositionCache()
        cache.set_cache_dir(tmp_path)
        assert cache.cache_dir == tmp_path
        cache.coloring_for(matrix)
        assert cache.stats.disk_hits == 1

    def test_negative_disk_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DecompositionCache(cache_dir=tmp_path, disk_max_bytes=-1)


class TestDiskCorruption:
    """A corrupt or truncated disk entry is a miss, never an error."""

    def _entry_path(self, tmp_path):
        (path,) = (tmp_path / "decompositions").glob("*.npz")
        return path

    @pytest.fixture()
    def populated(self, matrix, tmp_path):
        DecompositionCache(cache_dir=tmp_path).coloring_for(matrix)
        return tmp_path

    def test_truncated_file_is_a_counted_miss(self, matrix, populated):
        path = self._entry_path(populated)
        path.write_bytes(path.read_bytes()[:50])
        cache = DecompositionCache(cache_dir=populated)
        decomposition = cache.coloring_for(matrix)
        stats = cache.stats
        assert stats.disk_corruptions == 1
        assert stats.disk_misses == 1
        assert stats.misses == 1
        fresh = compute_coloring(matrix)
        assert decomposition.coloring_matrix.tobytes() == fresh.coloring_matrix.tobytes()

    def test_tampered_payload_fails_digest_verification(self, matrix, populated):
        import zipfile

        path = self._entry_path(populated)
        # Rewrite the archive with one payload member bit-flipped but the
        # zip container intact: only the digest check can catch this.
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        name = "coloring_matrix.npy"
        payload = bytearray(members[name])
        payload[-1] ^= 0xFF
        members[name] = bytes(payload)
        with zipfile.ZipFile(path, "w") as archive:
            for member_name, data in members.items():
                archive.writestr(member_name, data)
        cache = DecompositionCache(cache_dir=populated)
        decomposition = cache.coloring_for(matrix)
        assert cache.stats.disk_corruptions == 1
        fresh = compute_coloring(matrix)
        assert decomposition.coloring_matrix.tobytes() == fresh.coloring_matrix.tobytes()
