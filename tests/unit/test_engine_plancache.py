"""Unit tests for the compiled-plan cache (:mod:`repro.engine.plancache`).

The executor-level tier: whole :class:`CompiledPlan` artifacts on disk,
keyed by the content hash of the plan.  The
two standing invariants are exercised at this level too: a disk hit is
bit-identical to a fresh compilation (and performs **zero**
``eigh``/``cholesky``/filter-build calls), and a corrupt or truncated
artifact is a miss that recompiles and re-spills, never an error.
"""

import numpy as np
import pytest

from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    DopplerSpec,
    SimulationPlan,
    compile_plan,
    compiled_plan_cache_key,
    execute_plan,
)


@pytest.fixture()
def base_matrix():
    return np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)


def _mixed_plan(base, seed_offset=0):
    non_psd = np.array(
        [[1.0, 0.9, 0.9], [0.9, 1.0, 0.9], [0.9, 0.9, 0.2]], dtype=complex
    )
    plan = SimulationPlan()
    plan.add(base, seed=11 + seed_offset)
    plan.add(2.0 * base, seed=12 + seed_offset)
    plan.add(base, seed=13 + seed_offset)     # repeated matrix
    plan.add(non_psd, seed=14 + seed_offset)  # PSD repair path
    plan.add(
        base,
        seed=15 + seed_offset,
        doppler=DopplerSpec(normalized_doppler=0.05, n_points=64),
    )
    return plan


def _compile(plan, cache_dir=None):
    return compile_plan(
        plan,
        cache=DecompositionCache(),
        filter_cache=DopplerFilterCache(),
        plan_cache=(
            CompiledPlanCache() if cache_dir is None else CompiledPlanCache(cache_dir)
        ),
    )


class TestKey:
    def test_seeds_and_labels_do_not_split_keys(self, base_matrix):
        with_seeds = _mixed_plan(base_matrix, seed_offset=0)
        reseeded = _mixed_plan(base_matrix, seed_offset=100)
        assert compiled_plan_cache_key(with_seeds) == compiled_plan_cache_key(reseeded)

        labeled = SimulationPlan()
        labeled.add(base_matrix, seed=1, label="scenario-a")
        unlabeled = SimulationPlan()
        unlabeled.add(base_matrix, seed=2)
        assert compiled_plan_cache_key(labeled) == compiled_plan_cache_key(unlabeled)

    def test_compile_inputs_split_keys(self, base_matrix):
        reference = SimulationPlan()
        reference.add(base_matrix, seed=1)
        base_key = compiled_plan_cache_key(reference)

        perturbed = SimulationPlan()
        perturbed.add(base_matrix * 1.0001, seed=1)
        assert compiled_plan_cache_key(perturbed) != base_key

        cholesky = SimulationPlan()
        cholesky.add(base_matrix, seed=1, coloring_method="cholesky")
        assert compiled_plan_cache_key(cholesky) != base_key

        doppler = SimulationPlan()
        doppler.add(base_matrix, seed=1, doppler=DopplerSpec(0.05, 64))
        assert compiled_plan_cache_key(doppler) != base_key

        uncompensated = SimulationPlan()
        uncompensated.add(
            base_matrix, seed=1, doppler=DopplerSpec(0.05, 64, compensate_variance=False)
        )
        assert compiled_plan_cache_key(uncompensated) != compiled_plan_cache_key(doppler)

        variance = SimulationPlan()
        variance.add(base_matrix, seed=1, sample_variance=2.0)
        assert compiled_plan_cache_key(variance) != base_key

    def test_entry_order_matters(self, base_matrix):
        forward = SimulationPlan()
        forward.add(base_matrix, seed=1)
        forward.add(2.0 * base_matrix, seed=2)
        backward = SimulationPlan()
        backward.add(2.0 * base_matrix, seed=1)
        backward.add(base_matrix, seed=2)
        assert compiled_plan_cache_key(forward) != compiled_plan_cache_key(backward)


class TestRoundTrip:
    def test_warm_hit_is_bit_identical_and_computes_nothing(
        self, base_matrix, tmp_path, monkeypatch
    ):
        plan = _mixed_plan(base_matrix)
        cold = _compile(plan, tmp_path)
        assert cold.report.plan_cache_hits == 0
        cold_result = execute_plan(cold, 64)

        # The acceptance criterion, enforced literally: a warm hit must not
        # call the stacked decomposition or the filter builder at all.
        import repro.channels.doppler as doppler_module
        import repro.core.coloring as coloring_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a warm plan-cache hit must not compute")

        monkeypatch.setattr(coloring_module, "compute_coloring_batch", forbidden)
        monkeypatch.setattr(doppler_module, "young_beaulieu_filter", forbidden)

        warm = _compile(plan, tmp_path)
        assert warm.report.plan_cache_hits == 1
        assert warm.report.cache_hits == warm.report.cache_misses == 0
        warm_result = execute_plan(warm, 64)
        for cold_block, warm_block in zip(cold_result.blocks, warm_result.blocks):
            assert cold_block.samples.tobytes() == warm_block.samples.tobytes()

    def test_artifact_rebinds_to_callers_plan(self, base_matrix, tmp_path):
        # Seeds and labels come from the *caller's* plan, not the artifact:
        # a re-seeded sweep warm-starts from the same entry and produces the
        # re-seeded samples.
        _compile(_mixed_plan(base_matrix, seed_offset=0), tmp_path)
        reseeded = _mixed_plan(base_matrix, seed_offset=100)
        warm = _compile(reseeded, tmp_path)
        assert warm.report.plan_cache_hits == 1
        fresh = _compile(_mixed_plan(base_matrix, seed_offset=100))
        warm_result = execute_plan(warm, 32)
        fresh_result = execute_plan(fresh, 32)
        for warm_block, fresh_block in zip(warm_result.blocks, fresh_result.blocks):
            assert warm_block.samples.tobytes() == fresh_block.samples.tobytes()

    def test_diagnostics_survive_the_round_trip(self, base_matrix, tmp_path):
        plan = _mixed_plan(base_matrix)
        cold = _compile(plan, tmp_path)
        warm = _compile(plan, tmp_path)
        assert warm.report.plan_cache_hits == 1
        for index in range(plan.n_entries):
            cold_d = cold.decomposition_for(index)
            warm_d = warm.decomposition_for(index)
            assert warm_d.method == cold_d.method
            assert warm_d.was_repaired == cold_d.was_repaired
            assert warm_d.min_eigenvalue == cold_d.min_eigenvalue
            assert warm_d.extra == cold_d.extra
        assert warm.decomposition_for(3).was_repaired  # the non-PSD entry

    def test_loaded_arrays_are_frozen(self, base_matrix, tmp_path):
        plan = _mixed_plan(base_matrix)
        _compile(plan, tmp_path)
        warm = _compile(plan, tmp_path)
        group = warm.groups[0]
        assert not group.decompositions[0].coloring_matrix.flags.writeable
        doppler_group = next(g for g in warm.groups if g.is_doppler)
        assert not doppler_group.doppler_filter.flags.writeable

    def test_report_structure_preserved(self, base_matrix, tmp_path):
        plan = _mixed_plan(base_matrix)
        cold = _compile(plan, tmp_path)
        warm = _compile(plan, tmp_path)
        assert warm.report.n_entries == cold.report.n_entries
        assert warm.report.n_groups == cold.report.n_groups
        assert warm.report.n_unique_matrices == cold.report.n_unique_matrices
        assert warm.report.doppler_entries == cold.report.doppler_entries
        assert warm.report.doppler_filters_built == cold.report.doppler_filters_built

    def test_detached_cache_is_a_noop(self, base_matrix):
        plan = _mixed_plan(base_matrix)
        first = _compile(plan)
        second = _compile(plan)
        assert first.report.plan_cache_hits == 0
        assert second.report.plan_cache_hits == 0

    def test_explicit_cache_without_plan_cache_recomputes(self, base_matrix):
        # The documented no-reuse baseline DecompositionCache(maxsize=0) with
        # no plan cache recomputes every decomposition on every compile.
        plan = _mixed_plan(base_matrix)
        for _ in range(2):
            compiled = compile_plan(plan, cache=DecompositionCache(maxsize=0))
            assert compiled.report.plan_cache_hits == 0
            assert compiled.report.cache_misses > 0  # actually recomputed


class TestCorruption:
    """A corrupt or truncated artifact is a miss: recompute and re-spill."""

    def _artifact(self, tmp_path):
        (path,) = (tmp_path / "plans").glob("*.npz")
        return path

    def test_truncated_artifact_recompiles_and_respills(self, base_matrix, tmp_path):
        plan = _mixed_plan(base_matrix)
        cold = _compile(plan, tmp_path)
        cold_result = execute_plan(cold, 64)

        # Truncate the artifact mid-file: the next compile must treat it as
        # a miss, recompute everything, and leave a valid artifact behind.
        path = self._artifact(tmp_path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])

        recompiling_cache = CompiledPlanCache(tmp_path)
        recompiled = compile_plan(
            plan,
            cache=DecompositionCache(),
            filter_cache=DopplerFilterCache(),
            plan_cache=recompiling_cache,
        )
        assert recompiled.report.plan_cache_hits == 0
        stats = recompiling_cache.stats
        assert stats.disk_corruptions == 1
        assert stats.disk_misses == 1
        assert stats.misses == 1
        recompiled_result = execute_plan(recompiled, 64)
        for cold_block, new_block in zip(cold_result.blocks, recompiled_result.blocks):
            assert cold_block.samples.tobytes() == new_block.samples.tobytes()

        # Re-spilled: the artifact is valid again for the next "process".
        assert self._artifact(tmp_path).exists()
        warm = _compile(plan, tmp_path)
        assert warm.report.plan_cache_hits == 1

    def test_tampered_payload_fails_digest_verification(self, base_matrix, tmp_path):
        import zipfile

        plan = _mixed_plan(base_matrix)
        cold = _compile(plan, tmp_path)
        path = self._artifact(tmp_path)
        # Rewrite the archive with one payload member bit-flipped but the
        # zip container intact: only the digest check can catch this.
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        name = "decomp_0_coloring.npy"
        payload = bytearray(members[name])
        payload[-1] ^= 0xFF
        members[name] = bytes(payload)
        with zipfile.ZipFile(path, "w") as archive:
            for member_name, data in members.items():
                archive.writestr(member_name, data)
        cache = CompiledPlanCache(tmp_path)
        recompiled = _compile_with(plan, cache)
        assert recompiled.report.plan_cache_hits == 0
        assert cache.stats.disk_corruptions == 1
        for fresh, again in zip(
            execute_plan(cold, 32).blocks, execute_plan(recompiled, 32).blocks
        ):
            assert fresh.samples.tobytes() == again.samples.tobytes()

    def test_rebind_failure_quarantines_instead_of_poisoning(
        self, base_matrix, tmp_path, monkeypatch
    ):
        # The digest protects bytes, not meaning: an artifact that verifies
        # but fails re-binding (layout bug, key collision) must be
        # quarantined so the recompiled plan re-spills over it — not left
        # in place with the key marked no-spill, poisoning every future
        # process with a load+verify+failed-rebind+recompute cycle.
        import repro.engine.plancache as plancache_module

        plan = _mixed_plan(base_matrix)
        _compile(plan, tmp_path)
        monkeypatch.setattr(plancache_module, "_rebind", lambda *a, **k: None)
        broken_cache = CompiledPlanCache(tmp_path)
        compiled = compile_plan(
            plan, cache=DecompositionCache(), plan_cache=broken_cache
        )
        assert compiled.report.plan_cache_hits == 0
        stats = broken_cache.stats
        assert (stats.hits, stats.misses, stats.disk_corruptions) == (0, 1, 1)
        assert list((tmp_path / "plans").glob("*.quarantine"))
        # The recompiled plan re-spilled; with rebinding restored, the next
        # process hits again.
        monkeypatch.undo()
        warm = _compile(plan, tmp_path)
        assert warm.report.plan_cache_hits == 1


def _compile_with(plan, plan_cache):
    return compile_plan(
        plan,
        cache=DecompositionCache(),
        filter_cache=DopplerFilterCache(),
        plan_cache=plan_cache,
    )


class TestMemoryTier:
    """The in-memory LRU tier fronting the compiled-plan disk tier.

    The tier's contract mirrors the disk tier's: a memory hit is
    bit-identical to a fresh compile and computes (and now *reads*)
    nothing; eviction is byte-bounded LRU; invalidation is coherent with
    the disk tier; a detached default-constructed cache stays a no-op.
    """

    def test_memory_hit_is_bit_identical_and_touches_nothing(
        self, base_matrix, tmp_path, monkeypatch
    ):
        plan = _mixed_plan(base_matrix)
        cache = CompiledPlanCache(tmp_path)
        cold = _compile_with(plan, cache)
        assert cold.report.plan_cache_hits == 0
        cold_result = execute_plan(cold, 64)

        # A memory-tier hit must neither compute nor read the disk tier:
        # forbid the stacked decomposition, the filter builder, and the
        # artifact store's lookup for the warm compile.
        import repro.channels.doppler as doppler_module
        import repro.core.coloring as coloring_module
        import repro.engine.store as store_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a memory-tier hit must not compute or read disk")

        monkeypatch.setattr(coloring_module, "compute_coloring_batch", forbidden)
        monkeypatch.setattr(doppler_module, "young_beaulieu_filter", forbidden)
        monkeypatch.setattr(store_module.ArtifactStore, "lookup", forbidden)

        warm = _compile_with(plan, cache)
        assert warm.report.plan_cache_hits == 1
        assert warm.report.plan_memory_hits == 1
        assert warm.report.cache_hits == warm.report.cache_misses == 0
        stats = cache.stats
        assert stats.memory_hits == 1
        warm_result = execute_plan(warm, 64)
        for cold_block, warm_block in zip(cold_result.blocks, warm_result.blocks):
            assert cold_block.samples.tobytes() == warm_block.samples.tobytes()

    def test_memory_hit_rebinds_to_callers_seeds(self, base_matrix, tmp_path):
        cache = CompiledPlanCache(tmp_path)
        _compile_with(_mixed_plan(base_matrix, seed_offset=0), cache)
        reseeded = _mixed_plan(base_matrix, seed_offset=100)
        warm = _compile_with(reseeded, cache)
        assert warm.report.plan_memory_hits == 1
        fresh = _compile(reseeded)
        warm_result = execute_plan(warm, 32)
        fresh_result = execute_plan(fresh, 32)
        for warm_block, fresh_block in zip(warm_result.blocks, fresh_result.blocks):
            assert warm_block.samples.tobytes() == fresh_block.samples.tobytes()

    def test_disk_hit_promotes_into_memory(self, base_matrix, tmp_path):
        plan = _mixed_plan(base_matrix)
        _compile_with(plan, CompiledPlanCache(tmp_path))
        cache = CompiledPlanCache(tmp_path)  # fresh process: empty memory
        first = _compile_with(plan, cache)
        assert first.report.plan_cache_hits == 1
        assert first.report.plan_memory_hits == 0  # served by disk
        second = _compile_with(plan, cache)
        assert second.report.plan_memory_hits == 1  # promoted
        stats = cache.stats
        assert (stats.hits, stats.disk_hits, stats.memory_hits) == (2, 1, 1)

    def test_memory_rebind_failure_falls_back_to_disk(
        self, base_matrix, tmp_path, monkeypatch
    ):
        import repro.engine.plancache as plancache_module

        plan = _mixed_plan(base_matrix)
        cache = CompiledPlanCache(tmp_path)
        _compile_with(plan, cache)
        rebind = plancache_module._rebind

        def reject_memory(*args, from_disk, **kwargs):
            return rebind(*args, from_disk=from_disk, **kwargs) if from_disk else None

        monkeypatch.setattr(plancache_module, "_rebind", reject_memory)
        warm = _compile_with(plan, cache)
        assert warm.report.plan_cache_hits == 1
        assert warm.report.plan_memory_hits == 0
        stats = cache.stats  # the disk tier served it, one hit counted
        assert (stats.hits, stats.disk_hits, stats.misses) == (1, 1, 1)

    def test_memory_tier_comes_with_the_cache_dir(self, base_matrix, tmp_path):
        from repro.engine.plancache import DEFAULT_MEMORY_MAX_BYTES

        plan = _mixed_plan(base_matrix)
        cache = CompiledPlanCache(tmp_path)
        assert cache.memory_bound == DEFAULT_MEMORY_MAX_BYTES
        cold = _compile_with(plan, cache)
        assert cold.report.plan_cache_hits == 0
        warm = _compile_with(plan, cache)
        assert warm.report.plan_cache_hits == 1
        assert warm.report.plan_memory_hits == 1
        assert cache.stats.memory_hits == 1

    def test_detached_default_has_no_memory_tier(self, base_matrix):
        plan = _mixed_plan(base_matrix)
        cache = CompiledPlanCache()
        assert cache.memory_bound == 0
        _compile_with(plan, cache)
        assert len(cache) == 0
        second = _compile_with(plan, cache)
        assert second.report.plan_cache_hits == 0

    def test_memory_entries_are_frozen(self, base_matrix, tmp_path):
        plan = _mixed_plan(base_matrix)
        cache = CompiledPlanCache(tmp_path)
        _compile_with(plan, cache)
        warm = _compile_with(plan, cache)
        assert warm.report.plan_memory_hits == 1
        group = warm.groups[0]
        assert not group.decompositions[0].coloring_matrix.flags.writeable
        doppler_group = next(g for g in warm.groups if g.is_doppler)
        assert not doppler_group.doppler_filter.flags.writeable


class TestMaintenance:
    def test_new_cache_on_a_populated_dir_serves_its_artifacts(
        self, base_matrix, tmp_path
    ):
        plan = _mixed_plan(base_matrix)
        _compile(plan, tmp_path)
        cache = CompiledPlanCache(tmp_path)
        assert cache.cache_dir == tmp_path
        compiled = compile_plan(
            plan,
            cache=DecompositionCache(),
            filter_cache=DopplerFilterCache(),
            plan_cache=cache,
        )
        assert compiled.report.plan_cache_hits == 1

    def test_fresh_cache_per_compile_is_served_from_disk(self, base_matrix, tmp_path):
        # A cache built per compile (a new process, in effect) starts with
        # an empty memory tier, so a warm compile is a disk hit.
        plan = _mixed_plan(base_matrix)
        _compile_with(plan, CompiledPlanCache(tmp_path))
        cache = CompiledPlanCache(tmp_path)
        warm = _compile_with(plan, cache)
        assert (warm.report.plan_cache_hits, warm.report.plan_memory_hits) == (1, 0)
        assert (cache.stats.hits, cache.stats.disk_hits) == (1, 1)

    def test_lru_byte_bound_evicts_oldest(self, base_matrix, tmp_path):
        import os
        import time

        cache = CompiledPlanCache(tmp_path, disk_max_bytes=1)
        for index in range(3):
            _compile_with(SimulationPlan.from_specs([base_matrix * (index + 1)]), cache)
            # Separate mtimes deterministically (filesystem clocks are coarse).
            for path in (tmp_path / "plans").glob("*.npz"):
                os.utime(path, (time.time() - 100 + index, time.time() - 100 + index))
        # A 1-byte bound can hold no file: every spill evicts down to the
        # newest entry's write, then that file itself goes on the next one.
        assert cache.stats.disk_evictions >= 2
        assert len(list((tmp_path / "plans").glob("*.npz"))) <= 1

    def test_unusable_cache_dir_degrades_to_memory_only(self, base_matrix, tmp_path):
        # cache_dir pointing at a regular file: every disk op must fail
        # soft, leaving a working memory tier.
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        cache = CompiledPlanCache(blocker)
        plan = _mixed_plan(base_matrix)
        _compile_with(plan, cache)
        assert _compile_with(plan, cache).report.plan_memory_hits == 1
        assert cache.stats.disk_entries == 0

    def test_failed_spill_is_not_retried_per_hit(self, base_matrix, tmp_path, monkeypatch):
        from repro.engine.store import ArtifactStore

        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = CompiledPlanCache(blocker)
        plan = _mixed_plan(base_matrix)
        _compile_with(plan, cache)  # store: spill attempt fails
        calls = []
        original = ArtifactStore._write
        monkeypatch.setattr(
            ArtifactStore,
            "_write",
            lambda self, *a: calls.append(1) or original(self, *a),
        )
        for _ in range(5):
            _compile_with(plan, cache)  # memory hits
        assert calls == []  # the failed spill was remembered, not re-paid

    def test_failed_spill_is_remembered_per_cache(self, base_matrix, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = CompiledPlanCache(blocker)
        plan = _mixed_plan(base_matrix)
        _compile_with(plan, cache)  # spill fails: blocker is a regular file
        blocker.unlink()  # the directory is creatable now
        _compile_with(plan, cache)  # memory hit: no retry
        assert not blocker.exists()
        # A cache built later on the same directory starts afresh.
        _compile_with(plan, CompiledPlanCache(blocker))
        assert len(list((blocker / "plans").glob("*.npz"))) == 1

    def test_clear_disk_sweeps_orphaned_tmp_files(self, base_matrix, tmp_path):
        cache = CompiledPlanCache(tmp_path)
        _compile_with(_mixed_plan(base_matrix), cache)
        orphan = tmp_path / "plans" / "deadbeef.tmp"
        orphan.write_bytes(b"half-written by a dead worker")
        assert cache.clear_disk() == 1  # counts entries, not tmp leftovers
        assert not orphan.exists()

    @staticmethod
    def _stale_and_fresh_tmp(directory):
        import os
        import time

        directory.mkdir(parents=True, exist_ok=True)
        stale = directory / "deadbeef.tmp"
        stale.write_bytes(b"left by a dead worker")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = directory / "cafe.tmp"
        fresh.write_bytes(b"in flight")
        return stale, fresh

    def test_opening_a_cache_dir_sweeps_stale_tmp_files(self, tmp_path):
        stale, fresh = self._stale_and_fresh_tmp(tmp_path / "plans")
        CompiledPlanCache(tmp_path)
        assert not stale.exists()  # hour-old orphan swept
        assert fresh.exists()  # recent file presumed in-flight, kept

    def test_eviction_sweeps_stale_tmp_files(self, base_matrix, tmp_path):
        cache = CompiledPlanCache(tmp_path, disk_max_bytes=1)
        stale, fresh = self._stale_and_fresh_tmp(tmp_path / "plans")
        # The spill triggers an eviction pass (1-byte bound).
        _compile_with(_mixed_plan(base_matrix), cache)
        assert not stale.exists()
        assert fresh.exists()

    def test_negative_disk_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CompiledPlanCache(tmp_path, disk_max_bytes=-1)


class TestOnlyPlansPersist:
    """``cache_dir`` holds one namespace: nothing but ``plans/`` is written."""

    @staticmethod
    def _names(directory):
        return sorted(path.name for path in directory.iterdir())

    def test_engine_writes_only_plans(self, base_matrix, tmp_path):
        from repro.engine import SimulationEngine

        SimulationEngine(cache_dir=tmp_path).run(_mixed_plan(base_matrix), 64)
        assert self._names(tmp_path) == ["plans"]

    def test_simulator_writes_only_plans(self, base_matrix, tmp_path):
        from repro.api import Simulator

        with Simulator(cache_dir=tmp_path) as sim:
            sim.run(_mixed_plan(base_matrix), 64)
            assert sim.cache_dir == str(tmp_path)
        assert self._names(tmp_path) == ["plans"]



class TestLibraryReadsNoCacheEnv:
    """An exported ``REPRO_CACHE_DIR`` never makes the library persist."""

    @pytest.fixture()
    def env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    def test_simulator_run_leaves_env_dir_empty(self, base_matrix, env_dir):
        from repro.api import Simulator

        with Simulator() as sim:
            assert sim.cache_dir is None
            sim.run(_mixed_plan(base_matrix), 64)
            sim.run(_mixed_plan(base_matrix), 64)
        assert list(env_dir.iterdir()) == []

    def test_engine_run_leaves_env_dir_empty(self, base_matrix, env_dir):
        from repro.engine import SimulationEngine

        engine = SimulationEngine()
        assert engine.plan_cache.cache_dir is None
        engine.run(_mixed_plan(base_matrix), 64)
        assert list(env_dir.iterdir()) == []

    def test_compile_plan_leaves_env_dir_empty(self, base_matrix, env_dir):
        for _ in range(2):
            compiled = compile_plan(_mixed_plan(base_matrix))  # every default
            assert compiled.report.plan_cache_hits == 0
        assert list(env_dir.iterdir()) == []


class TestInflightSingleflight:
    """The compile singleflight tier: one fresh compile per key, ever."""

    def test_join_finish_lead_and_follow(self, tmp_path):
        cache = CompiledPlanCache(tmp_path)
        assert cache.enabled
        assert cache.join_inflight("k") is None  # first caller leads
        event = cache.join_inflight("k")  # second coalesces
        assert event is not None and not event.is_set()
        cache.finish_inflight("k")
        assert event.is_set()
        # The finished key is gone: the next caller leads a fresh compile.
        assert cache.join_inflight("k") is None
        cache.finish_inflight("k")
        stats = cache.stats
        assert stats.inflight_leads == 2
        assert stats.inflight_coalesced == 1

    def test_detached_cache_is_strict_noop(self):
        cache = CompiledPlanCache()
        assert not cache.enabled
        # A detached cache never registers leaders: both calls are no-ops.
        assert cache.join_inflight("k") is None
        assert cache.join_inflight("k") is None
        cache.finish_inflight("k")  # harmless on an empty table
        stats = cache.stats
        assert stats.inflight_leads == 0
        assert stats.inflight_coalesced == 0

    def test_unusable_cache_dir_still_enables_singleflight(self, tmp_path):
        # The memory tier alone is a tier to share results through.
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = CompiledPlanCache(blocker)
        assert cache.enabled
        assert cache.join_inflight("k") is None
        assert cache.join_inflight("k") is not None
        cache.finish_inflight("k")

    def test_reset_stats_zeroes_inflight_counters(self, tmp_path):
        cache = CompiledPlanCache(tmp_path)
        cache.join_inflight("k")
        cache.join_inflight("k")
        cache.finish_inflight("k")
        cache.reset_stats()
        stats = cache.stats
        assert stats.inflight_leads == 0
        assert stats.inflight_coalesced == 0

    def test_concurrent_equal_compiles_share_one_fresh_compile(
        self, base_matrix, tmp_path, gated_eigh
    ):
        """N threads, equal plan hash: one leader compiles, N-1 coalesce."""
        import threading

        n_threads = 4
        gate = gated_eigh
        cache = CompiledPlanCache(tmp_path)
        decomp = DecompositionCache()
        filters = DopplerFilterCache()
        results = [None] * n_threads
        errors = []

        def worker(index):
            # Same matrix, different seeds: equal compiled-plan hash.
            plan = SimulationPlan()
            plan.add(base_matrix, seed=100 + index)
            try:
                results[index] = compile_plan(
                    plan,
                    cache=decomp,
                    filter_cache=filters,
                    plan_cache=cache,
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        # The leader is stalled inside eigh; wait until every other thread
        # has registered as an in-flight follower, then open the gate.
        assert gate.entered.wait(timeout=10)
        deadline = 100
        while cache.stats.inflight_coalesced < n_threads - 1 and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
        assert cache.stats.inflight_coalesced == n_threads - 1
        gate.release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors

        # Exactly one fresh compile: one leader, every follower cache-fed.
        stats = cache.stats
        assert stats.inflight_leads == 1
        leaders = [r for r in results if r.report.plan_cache_hits == 0]
        followers = [r for r in results if r.report.plan_cache_hits == 1]
        assert len(leaders) == 1
        assert len(followers) == n_threads - 1
        assert all(r.report.plan_inflight_hits == 1 for r in followers)
        assert leaders[0].report.plan_inflight_hits == 0

    def test_leader_failure_releases_key_for_reelection(
        self, base_matrix, tmp_path, flaky_eigh
    ):
        """A failing leader must not strand followers or poison the key."""
        from conftest import InjectedFault

        flaky_eigh(fail_at=1)
        cache = CompiledPlanCache(tmp_path)
        plan = SimulationPlan()
        plan.add(base_matrix, seed=7)
        with pytest.raises(InjectedFault):
            compile_plan(
                plan,
                cache=DecompositionCache(),
                filter_cache=DopplerFilterCache(),
                plan_cache=cache,
            )
        # The in-flight table is clean: no stuck event for the key.
        assert cache._inflight == {}
        # The next compile of the same plan leads afresh and succeeds.
        compiled = compile_plan(
            plan,
            cache=DecompositionCache(),
            filter_cache=DopplerFilterCache(),
            plan_cache=cache,
        )
        assert compiled.report.plan_cache_hits == 0
        assert cache.stats.inflight_leads == 2

    def test_leader_finishing_between_miss_and_join_is_not_recompiled(
        self, base_matrix, tmp_path, monkeypatch
    ):
        """Thread B misses; leader A compiles, puts and releases the key
        before B joins.  B then leads an empty in-flight table, and must
        find A's plan instead of compiling it again."""
        import threading

        import repro.engine.compile as compile_module

        cache = CompiledPlanCache(tmp_path)
        decomp = DecompositionCache()
        filters = DopplerFilterCache()
        fresh_calls = []
        fresh = compile_module._compile_plan_fresh

        def counting_fresh(plan, *args):
            fresh_calls.append(threading.current_thread().name)
            return fresh(plan, *args)

        monkeypatch.setattr(compile_module, "_compile_plan_fresh", counting_fresh)

        b_missed = threading.Event()
        a_done = threading.Event()
        lookup = cache.lookup

        def lookup_then_stall(plan, key, **kwargs):
            # B's first lookup misses, then B stalls until A has finished:
            # exactly the window between B's miss and its join_inflight.
            loaded = lookup(plan, key, **kwargs)
            if threading.current_thread().name == "B" and not b_missed.is_set():
                b_missed.set()
                assert a_done.wait(timeout=10)
            return loaded

        monkeypatch.setattr(cache, "lookup", lookup_then_stall)
        results = {}
        errors = []

        def worker(seed, wait_for):
            plan = SimulationPlan()
            plan.add(base_matrix, seed=seed)
            try:
                if wait_for is not None:
                    assert wait_for.wait(timeout=10)
                results[threading.current_thread().name] = compile_plan(
                    plan, cache=decomp, filter_cache=filters, plan_cache=cache
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
            finally:
                if threading.current_thread().name == "A":
                    a_done.set()

        thread_b = threading.Thread(target=worker, args=(1, None), name="B")
        thread_a = threading.Thread(target=worker, args=(2, b_missed), name="A")
        thread_b.start()
        thread_a.start()
        thread_a.join(timeout=20)
        thread_b.join(timeout=20)
        assert not thread_a.is_alive() and not thread_b.is_alive()
        assert not errors

        assert fresh_calls == ["A"]
        assert results["A"].report.plan_cache_hits == 0
        assert results["B"].report.plan_cache_hits == 1
        assert results["B"].report.plan_inflight_hits == 1
        # Both threads led the key once; B's re-probe counted a hit only.
        stats = cache.stats
        assert stats.inflight_leads == 2
        assert (stats.hits, stats.misses) == (1, 2)
        assert cache._inflight == {}
        for got, want in zip(
            execute_plan(results["B"], 32).blocks,
            execute_plan(_compile(results["B"].plan), 32).blocks,
        ):
            assert got.samples.tobytes() == want.samples.tobytes()


class TestHashOncePerCompile:
    """compile_plan hashes a plan once, whether the plan tier hits or misses."""

    @pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
    def test_one_plan_hash_per_compile(self, base_matrix, tmp_path, monkeypatch, warm):
        import repro.engine.plancache as plancache_module

        cache = CompiledPlanCache(tmp_path)
        if warm:
            compile_plan(_mixed_plan(base_matrix), plan_cache=cache)
        calls = []
        real_key = plancache_module.compiled_plan_cache_key

        def counting_key(plan, **kwargs):
            calls.append(plan)
            return real_key(plan, **kwargs)

        monkeypatch.setattr(plancache_module, "compiled_plan_cache_key", counting_key)
        compiled = compile_plan(_mixed_plan(base_matrix), plan_cache=cache)
        assert compiled.report.plan_cache_hits == int(warm)
        assert len(calls) == 1


class TestStatsFields:
    def test_stats_carry_inflight_counters(self, tmp_path):
        stats = CompiledPlanCache(tmp_path).stats
        assert stats.inflight_leads == 0
        assert stats.inflight_coalesced == 0
