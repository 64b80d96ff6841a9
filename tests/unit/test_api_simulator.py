"""Unit tests for the unified session API (:mod:`repro.api`).

The acceptance contract: ``Simulator()`` results are
bit-identical to looped single-spec generators for the same seeds, and
``asyncio.gather`` over several ``sim.submit(...)`` calls completes with
per-plan results matching the synchronous ``sim.run(...)``.
"""

import asyncio
import gc
import importlib
import inspect
import multiprocessing
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Simulator
from repro.channels import MIMOArrayScenario, ScenarioSweep
from repro.core import (
    CovarianceSpec,
    RayleighFadingGenerator,
    RealTimeRayleighGenerator,
    correlation_coefficient_matrix,
    covariance_match_report,
)
from repro.engine import (
    BatchResult,
    DecompositionCache,
    DopplerSpec,
    SimulationPlan,
)
from repro.exceptions import GenerationError, ParallelExecutionError, SpecificationError


K2 = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.0]], dtype=complex)


def _plan(n_entries=5, seed=31, n_branches=3):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n_entries):
        basis = rng.normal(size=(n_branches, n_branches + 1)) + 1j * rng.normal(
            size=(n_branches, n_branches + 1)
        )
        specs.append(
            CovarianceSpec.from_covariance_matrix(basis @ basis.conj().T / (n_branches + 1))
        )
    return SimulationPlan.from_specs(specs, seed=seed)


class TestConstruction:
    def test_default_session_properties(self):
        sim = Simulator()
        assert sim.max_workers is None
        assert isinstance(sim.cache, DecompositionCache)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(SpecificationError):
            Simulator(max_workers=0)

    def test_cache_stats_snapshot(self):
        sim = Simulator(cache=DecompositionCache())
        sim.run(_plan(2), 4)
        stats = sim.cache.stats
        assert stats.misses > 0

    def test_cache_dir_builds_persistent_session(self, tmp_path):
        with Simulator(cache_dir=tmp_path) as sim:
            assert sim.cache_dir == str(tmp_path)
            reference = sim.run(_plan(2), 8)
        # A new session over the same directory loads the whole compiled
        # plan from disk — no per-matrix lookups at all — and reproduces
        # the run byte-for-byte.
        with Simulator(cache_dir=tmp_path) as warm:
            result = warm.run(_plan(2), 8)
            assert result.compile_report.plan_cache_hits == 1
            assert warm.engine.plan_cache.stats.hits == 1
            assert warm.cache.stats.lookups == 0  # decomposition tier untouched
        for block, expected in zip(result.blocks, reference.blocks):
            assert block.samples.tobytes() == expected.samples.tobytes()

    def test_cache_dir_conflicts_with_explicit_cache(self, tmp_path):
        with pytest.raises(SpecificationError):
            Simulator(cache=DecompositionCache(), cache_dir=tmp_path)

    def test_explicit_memory_only_cache_overrides_env(self, tmp_path, monkeypatch):
        # An explicit cache opt-out holds even when REPRO_CACHE_DIR is
        # exported: the session may not silently gain a disk tier.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Simulator(cache=DecompositionCache(maxsize=0)) as sim:
            assert sim.cache_dir is None

    def test_default_session_ignores_env_dir(self, tmp_path, monkeypatch):
        # The session builds its caches with the variable set: still no tier.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Simulator() as sim:
            assert sim.cache_dir is None



class TestSessionsShareNoCache:
    """Each session owns its caches: no other session or generator reaches them."""

    @staticmethod
    def _doppler_plan():
        plan = _plan(3)
        plan.add(K2, seed=9, doppler=DopplerSpec(0.05, 64))
        return plan

    @staticmethod
    def _caches(sim):
        return (sim.cache, sim.engine.filter_cache, sim.engine.plan_cache)

    def test_default_sessions_and_a_generator_share_no_cache(self):
        with Simulator() as first, Simulator() as second:
            for mine, theirs in zip(self._caches(first), self._caches(second)):
                assert mine is not theirs
            first.run(self._doppler_plan(), 8)
            RayleighFadingGenerator(K2, rng=1)
            RealTimeRayleighGenerator(K2, normalized_doppler=0.05, n_points=64, rng=1)
            # Nothing the first session or the generators did shows up in
            # the second session's counters or entries.
            for cache in self._caches(second):
                assert cache.stats.lookups == 0
                assert len(cache) == 0
            second.run(self._doppler_plan(), 8)
            assert second.cache.stats.hits == 0
            assert second.cache.stats.misses == first.cache.stats.misses == 4
            assert second.engine.filter_cache.stats.misses == 1
            # Clearing one session leaves the other's entries in place.
            for cache in self._caches(second):
                cache.clear()
            assert len(first.cache) == 4
            assert len(first.engine.filter_cache) == 1
            rerun = first.run(self._doppler_plan(), 8)
            assert rerun.compile_report.cache_hits == 4
            assert rerun.compile_report.cache_misses == 0


class TestEnvelopes:
    def test_bit_identical_to_standalone_generator(self):
        spec = CovarianceSpec.from_covariance_matrix(K2)
        plan = SimulationPlan()
        plan.add(spec, seed=5)
        block = Simulator().run(plan, 128).blocks[0]
        reference = RayleighFadingGenerator(spec, rng=5).generate_gaussian(128)
        assert np.array_equal(block.samples, reference.samples)

    def test_envelope_powers_variant_matches_standalone_generator(self):
        matrix = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=complex)
        spec = CovarianceSpec.from_envelope_variances(
            np.real(np.diag(matrix)), correlation_coefficient_matrix(matrix)
        )
        block = Simulator().envelopes(spec, 64, seed=2)
        reference = RayleighFadingGenerator(spec, rng=2).generate_envelopes(64)
        assert np.array_equal(block.envelopes, reference.envelopes)

    def test_doppler_mode_matches_standalone_realtime_generator(self):
        block = Simulator().envelopes(
            K2, 100, seed=3, doppler=DopplerSpec(0.05, n_points=128)
        )
        reference = RealTimeRayleighGenerator(
            K2,
            normalized_doppler=0.05,
            n_points=128,
            rng=3,
        ).generate_envelopes(n_blocks=1)
        assert block.envelopes.shape == (2, 100)
        assert np.array_equal(block.envelopes, reference.envelopes[:, :100])

    def test_scenario_source_matches_standalone_generator(self):
        scenario = MIMOArrayScenario(
            n_antennas=3, spacing_wavelengths=0.5, angular_spread_rad=0.2
        )
        powers = np.ones(3)
        block = Simulator().envelopes(scenario.covariance_spec(powers), 64, seed=4)
        reference = RayleighFadingGenerator(
            scenario.covariance_spec(powers), rng=4
        ).generate_envelopes(64)
        assert np.array_equal(block.envelopes, reference.envelopes)

    def test_scenario_requires_powers(self):
        scenario = MIMOArrayScenario(
            n_antennas=2, spacing_wavelengths=0.5, angular_spread_rad=0.2
        )
        with pytest.raises(SpecificationError, match="covariance_spec"):
            Simulator().envelopes(scenario, 16)

    def test_invalid_sample_count_rejected(self):
        with pytest.raises(GenerationError, match="n_samples"):
            Simulator().envelopes(K2, 0)


# Not positive semidefinite, so the PSD-forcing keywords change the bytes.
K3_INDEFINITE = np.array(
    [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]], dtype=complex
)

# One non-default value for every keyword of ``SimulationPlan.add``.
ENTRY_KEYWORDS = {
    "seed": 17,
    "coloring_method": "svd",
    "psd_method": "higham",
    "epsilon": 1e-2,
    "sample_variance": 2.0,
    "doppler": DopplerSpec(0.05, n_points=64),
    "fading": {"model": "rician", "shape": 2.0},
    "label": "entry",
}

REMOVED_KEYWORDS = (
    "mode",
    "gaussian_powers",
    "envelope_powers",
    "normalized_doppler",
    "n_points",
    "compensate_variance",
    "return_gaussian",
)


class TestEnvelopesEntryKeywords:
    """``envelopes`` describes an entry only through ``SimulationPlan.add``."""

    def test_every_plan_add_keyword_is_covered(self):
        keyword_only = [
            name
            for name, parameter in inspect.signature(SimulationPlan.add).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert sorted(keyword_only) == sorted(ENTRY_KEYWORDS)

    @pytest.mark.parametrize("keyword", sorted(ENTRY_KEYWORDS))
    def test_keyword_gives_the_one_entry_plan_bytes(self, keyword):
        entry = {"seed": 3, keyword: ENTRY_KEYWORDS[keyword]}
        block = Simulator().envelopes(K3_INDEFINITE, 96, **entry)
        plan = SimulationPlan()
        plan.add(K3_INDEFINITE, **entry)
        reference = Simulator().run(plan, 96).blocks[0].envelopes()
        assert np.array_equal(block.envelopes, reference.envelopes)
        assert block.metadata == reference.metadata

    @pytest.mark.parametrize("keyword", REMOVED_KEYWORDS)
    def test_removed_keyword_is_refused_by_name(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            Simulator().envelopes(K2, 16, **{keyword: 1})


class TestRun:
    def test_run_matches_looped_generators(self):
        plan = _plan()
        result = Simulator(cache=DecompositionCache()).run(plan, 32)
        for entry, block in zip(plan, result.blocks):
            reference = RayleighFadingGenerator(
                entry.spec, rng=entry.seed
            ).generate_gaussian(32)
            assert np.array_equal(reference.samples, block.samples)

    def test_run_accepts_compiled_plan(self):
        sim = Simulator(cache=DecompositionCache())
        plan = _plan(3)
        compiled = sim.compile(plan)
        assert np.array_equal(
            sim.run(compiled, 16).blocks[0].samples,
            sim.run(plan, 16).blocks[0].samples,
        )

    def test_run_points_a_sweep_at_to_plan(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[2],
            spacing_wavelengths=[0.5],
            angular_spread_rad=[0.1],
        )
        with pytest.raises(SpecificationError, match="to_plan"):
            Simulator().run(sweep, 8)

    def test_rejects_unrunnable_work(self):
        with pytest.raises(SpecificationError, match="SimulationPlan"):
            Simulator().run([np.eye(2)], 8)

    def test_parallel_run_bit_identical_to_in_process(self):
        plan = _plan(6)
        sequential = Simulator(cache=DecompositionCache()).run(plan, 24)
        with Simulator(cache=DecompositionCache(), max_workers=2) as sim:
            parallel = sim.run(plan, 24)
        assert isinstance(parallel, BatchResult)
        assert parallel.compile_report.n_entries == plan.n_entries
        for seq_block, par_block in zip(sequential.blocks, parallel.blocks):
            assert np.array_equal(seq_block.samples, par_block.samples)
        assert [b.metadata["plan_index"] for b in parallel.blocks] == list(range(6))

    def test_sweep_accepts_2d_array_of_per_scenario_powers(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[2],
            spacing_wavelengths=[0.5, 1.0],
            angular_spread_rad=[0.1],
        )
        powers = np.array([[1.0, 2.0], [3.0, 4.0]])
        via_array = Simulator(cache=DecompositionCache()).run(
            sweep.to_plan(powers, seed=21), 8
        )
        via_list = Simulator(cache=DecompositionCache()).run(
            sweep.to_plan([powers[0], powers[1]], seed=21), 8
        )
        for a, b in zip(via_array.blocks, via_list.blocks):
            assert np.array_equal(a.samples, b.samples)

    def test_single_entry_plan_stays_in_process(self):
        plan = _plan(1)
        with Simulator(cache=DecompositionCache(), max_workers=4) as sim:
            a = sim.run(plan, 8)
            assert not multiprocessing.active_children()
        b = Simulator(cache=DecompositionCache()).run(plan, 8)
        assert np.array_equal(a.blocks[0].samples, b.blocks[0].samples)

    def test_max_workers_never_spawns_processes(self):
        # Regression: run executes in-process whatever the thread budget;
        # repro.shard is the one multiprocess path for plans.
        plan = _plan(6)
        with Simulator(cache=DecompositionCache(), max_workers=4) as sim:
            result = sim.run(plan, 16)
            assert not multiprocessing.active_children()
        _same_bytes(result, Simulator(cache=DecompositionCache()).run(plan, 16))

    def test_empty_plan_runs_to_an_empty_result(self):
        result = Simulator(cache=DecompositionCache()).run(SimulationPlan(), 4)
        assert result.blocks == ()
        assert result.compile_report.n_entries == 0

    def test_rejects_bad_sample_count(self):
        with pytest.raises(GenerationError, match="n_samples"):
            Simulator(cache=DecompositionCache()).run(_plan(2), 0)

    def test_run_plan_parallel_wrapper_is_gone(self):
        # The whole repro.parallel package went with it: replica ensembles
        # are plans and repro.shard is the one multiprocess path.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel")

    def test_summary_reports_cache_counters(self):
        sim = Simulator(cache=DecompositionCache())
        sim.run(_plan(3), 8)
        summary = sim.run(_plan(3), 8).summary()
        assert "decomposition cache" in summary
        assert "3 hits" in summary
        assert "hit rate" in summary


def _same_bytes(result, reference):
    assert len(result.blocks) == len(reference.blocks)
    for block, expected in zip(result.blocks, reference.blocks):
        assert block.samples.tobytes() == expected.samples.tobytes()


class TestSessionThreads:
    """The thread pool is the session's one executor: built lazily, closed with it."""

    def test_one_session_serves_every_run_bit_identically(self):
        plans = [_plan(4, seed=seed) for seed in (11, 12, 13)]
        with Simulator(cache=DecompositionCache(), max_workers=2) as sim:
            for plan in plans + plans:
                reference = Simulator(cache=DecompositionCache()).run(plan, 16)
                _same_bytes(sim.run(plan, 16), reference)
            assert sim._thread_pool is None  # run never builds the pool
            assert not multiprocessing.active_children()

    def test_concurrent_runs_from_many_threads_are_bit_identical(self):
        # More threads than cores, with a short switch interval, so runs
        # sharing one session's engine and cache interleave.
        plans = [_plan(3, seed=seed) for seed in range(6)]
        references = [Simulator(cache=DecompositionCache()).run(p, 16) for p in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Simulator(cache=DecompositionCache(), max_workers=4) as sim:
                with ThreadPoolExecutor(max_workers=8) as threads:
                    futures = [threads.submit(sim.run, p, 16) for p in plans * 2]
                    results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result, reference in zip(results, references * 2):
            _same_bytes(result, reference)

    def test_repeated_plan_hits_warm_session_cache(self):
        plan = _plan(3)
        with Simulator(cache=DecompositionCache(), max_workers=2) as sim:
            first = sim.run(plan, 8).compile_report
            second = sim.run(plan, 8).compile_report
        assert first.cache_misses == 3
        assert second.cache_misses == 0
        assert second.cache_hits == 3

    def test_max_workers_sizes_submit_thread_pool(self):
        plans = [_plan(2, seed=seed) for seed in range(8)]
        sim = Simulator(cache=DecompositionCache(), max_workers=3)

        async def gather():
            return await asyncio.gather(*(sim.submit(plan, 8) for plan in plans))

        asyncio.run(gather())
        pool = sim._thread_pool
        assert pool._max_workers == 3
        assert 1 <= len(pool._threads) <= 3
        assert all(t.name.startswith("repro-simulator") for t in pool._threads)
        assert not multiprocessing.active_children()
        sim.close()

    def test_close_stops_pool_threads_and_later_runs_stay_in_process(self):
        plan = _plan(4)
        reference = Simulator(cache=DecompositionCache()).run(plan, 16)
        sim = Simulator(cache=DecompositionCache(), max_workers=2)
        _same_bytes(asyncio.run(sim.submit(plan, 16)), reference)
        threads = list(sim._thread_pool._threads)
        assert threads
        sim.close()
        assert sim._thread_pool is None
        assert not any(thread.is_alive() for thread in threads)
        _same_bytes(sim.run(plan, 16), reference)
        assert sim._thread_pool is None  # no pool rebuilt after close

    def test_unclosed_session_pool_threads_exit_when_collected(self):
        sim = Simulator(cache=DecompositionCache(), max_workers=2)
        asyncio.run(sim.submit(_plan(2), 8))
        threads = list(sim._thread_pool._threads)
        del sim
        gc.collect()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

    def test_refused_submit_leaves_nothing_pending(self):
        sim = Simulator(cache=DecompositionCache())
        sim.close()

        async def attempt():
            return await sim.submit(_plan(1), 4)

        with pytest.raises(ParallelExecutionError, match="closed"):
            asyncio.run(attempt())
        assert sim.pending_submissions == 0
        assert sim._thread_pool is None


class TestStream:
    def test_one_entry_stream_statistics_cover_covariance(self, eq22_covariance):
        # A long record in bounded memory: running statistics over the
        # blocks of a one-entry plan, one block held at a time.
        plan = SimulationPlan.from_specs([eq22_covariance], seeds=[1])
        n = eq22_covariance.shape[0]
        covariance, power, mean, total = np.zeros((n, n), dtype=complex), 0.0, 0.0, 0
        for batch in Simulator().stream(plan, block_size=20_000, n_blocks=10):
            samples = batch.blocks[0].samples
            covariance = covariance + samples @ samples.conj().T
            power = power + np.sum(np.abs(samples) ** 2, axis=1)
            mean = mean + np.sum(np.abs(samples), axis=1)
            total += samples.shape[1]
        assert total == 200_000
        assert np.max(np.abs(covariance / total - eq22_covariance)) < 0.03
        assert np.allclose(power / total, 1.0, atol=0.03)
        assert np.allclose(mean / total, 0.8862, atol=0.02)

    def test_stream_matches_engine_stream(self):
        plan = _plan(3)
        sim = Simulator(cache=DecompositionCache())
        streamed = list(sim.stream(plan, block_size=7, n_blocks=3))
        assert len(streamed) == 3
        reference = list(
            Simulator(cache=DecompositionCache()).engine.stream(
                plan, block_size=7, n_blocks=3
            )
        )
        for batch, ref_batch in zip(streamed, reference):
            for block, ref_block in zip(batch.blocks, ref_batch.blocks):
                assert np.array_equal(block.samples, ref_block.samples)

    def test_snapshot_stream_yields_fixed_size_blocks(self, eq22_covariance):
        plan = SimulationPlan.from_specs([eq22_covariance], seeds=[0])
        batches = list(Simulator().stream(plan, block_size=128, n_blocks=3))
        assert len(batches) == 3
        assert all(batch.n_samples == 128 for batch in batches)
        assert all(batch.blocks[0].samples.shape == (3, 128) for batch in batches)

    def test_doppler_stream_yields_idft_sized_blocks(self, eq22_covariance):
        plan = SimulationPlan.from_specs(
            [eq22_covariance], seeds=[0], doppler=DopplerSpec(0.05, n_points=512)
        )
        batches = list(Simulator().stream(plan, block_size=512, n_blocks=2))
        assert [batch.blocks[0].samples.shape for batch in batches] == [(3, 512)] * 2

    def test_snapshot_stream_equals_a_chunked_standalone_generator(self, eq22_covariance):
        # Each block is one call of the entry's persistent generator.
        plan = SimulationPlan.from_specs([eq22_covariance], seeds=[6])
        streamed = [
            batch.blocks[0].samples
            for batch in Simulator().stream(plan, block_size=128, n_blocks=3)
        ]
        generator = RayleighFadingGenerator(eq22_covariance, rng=6)
        for block in streamed:
            assert block.tobytes() == generator.generate_gaussian(128).samples.tobytes()

    def test_doppler_stream_concatenation_equals_one_long_run(self, eq22_covariance):
        # A block size that does not divide the IDFT length: the entry
        # carries its partial IDFT block over from one chunk to the next.
        plan = SimulationPlan.from_specs(
            [eq22_covariance], seeds=[6], doppler=DopplerSpec(0.05, n_points=512)
        )
        sim = Simulator(cache=DecompositionCache())
        streamed = np.concatenate(
            [batch.blocks[0].samples for batch in sim.stream(plan, block_size=300, n_blocks=4)],
            axis=1,
        )
        whole = sim.run(plan, 1200).blocks[0].samples
        assert streamed.tobytes() == whole.tobytes()

    def test_stream_is_reproducible_from_its_seed(self, eq22_covariance):
        def record(seed):
            plan = SimulationPlan.from_specs([eq22_covariance], seeds=[seed])
            return [
                batch.blocks[0].samples.tobytes()
                for batch in Simulator().stream(plan, block_size=64, n_blocks=3)
            ]

        assert record(8) == record(8)
        assert record(8) != record(9)

    def test_successive_blocks_are_fresh_samples(self, eq22_covariance):
        plan = SimulationPlan.from_specs([eq22_covariance], seeds=[2])
        blocks = [
            batch.blocks[0].samples
            for batch in Simulator().stream(plan, block_size=64, n_blocks=3)
        ]
        assert not np.array_equal(blocks[0], blocks[1])
        assert not np.array_equal(blocks[1], blocks[2])


class TestReplicaEnsemble:
    """A Monte-Carlo replica ensemble is a plan of R entries sharing one covariance."""

    def test_every_replica_matches_the_covariance(self, eq22_covariance):
        plan = SimulationPlan.from_specs([eq22_covariance] * 4, seed=0)
        result = Simulator().run(plan, 20_000)
        errors = np.array(
            [
                covariance_match_report(block.samples, eq22_covariance).relative_error
                for block in result.blocks
            ]
        )
        assert errors.shape == (4,)
        assert errors.mean() < 0.1
        assert errors.max() < 0.2

    def test_pooled_covariance_estimate(self, eq22_covariance):
        plan = SimulationPlan.from_specs([eq22_covariance] * 4, seed=1)
        result = Simulator().run(plan, 25_000)
        total = sum(block.samples.shape[1] for block in result.blocks)
        pooled = sum(block.samples @ block.samples.conj().T for block in result.blocks)
        assert total == 100_000
        assert np.max(np.abs(pooled / total - eq22_covariance)) < 0.04

    def test_replicas_draw_independent_samples(self, eq22_covariance):
        plan = SimulationPlan.from_specs([eq22_covariance] * 3, seed=5)
        blocks = [block.samples for block in Simulator().run(plan, 256).blocks]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(blocks[i], blocks[j])

    def test_ensemble_is_reproducible_from_its_root_seed(self, eq22_covariance):
        def ensemble(seed):
            plan = SimulationPlan.from_specs([eq22_covariance] * 3, seed=seed)
            return [block.samples.tobytes() for block in Simulator().run(plan, 128).blocks]

        assert ensemble(3) == ensemble(3)
        assert ensemble(3) != ensemble(4)

    def test_each_replica_equals_a_standalone_generator(self, eq22_covariance):
        plan = SimulationPlan.from_specs([eq22_covariance] * 3, seed=11)
        result = Simulator(cache=DecompositionCache()).run(plan, 200)
        for entry, block in zip(plan, result.blocks):
            reference = RayleighFadingGenerator(
                eq22_covariance, rng=entry.seed
            ).generate_gaussian(200)
            assert block.samples.tobytes() == reference.samples.tobytes()


class TestSubmit:
    def test_gather_over_four_submits_matches_sync_run(self):
        sim = Simulator(cache=DecompositionCache(), max_workers=4)
        plans = [_plan(3, seed=seed) for seed in (1, 2, 3, 4, 5)]

        async def gather():
            return await asyncio.gather(
                *(sim.submit(plan, 20) for plan in plans)
            )

        results = asyncio.run(gather())
        assert len(results) == 5
        for plan, result in zip(plans, results):
            sync = Simulator(cache=DecompositionCache()).run(plan, 20)
            for got, expected in zip(result.blocks, sync.blocks):
                assert np.array_equal(got.samples, expected.samples)
        sim.close()

    def test_closed_session_rejects_submit(self):
        sim = Simulator()
        sim.close()

        async def attempt():
            return await sim.submit(_plan(1), 4)

        with pytest.raises(ParallelExecutionError, match="closed"):
            asyncio.run(attempt())

    def test_close_is_idempotent_and_run_survives(self):
        sim = Simulator(cache=DecompositionCache())
        sim.close()
        sim.close()
        assert sim.run(_plan(1), 4).n_entries == 1

    def test_pending_submissions_tracks_lifecycle(self):
        sim = Simulator(cache=DecompositionCache(), max_workers=2)
        assert sim.pending_submissions == 0

        async def one():
            return await sim.submit(_plan(2, seed=3), 16)

        result = asyncio.run(one())
        assert result.n_entries == 2
        assert sim.pending_submissions == 0
        sim.close()

    def test_cancelled_submit_releases_pool_slot(self, flaky_eigh):
        """Regression: cancelling the awaitable must not orphan the work.

        With a single pool thread deliberately occupied, the submitted call
        has not started yet; cancelling the asyncio side must propagate to
        the pool future, drop the pending-submission count back to zero,
        and the cancelled work must never run.
        """
        import threading

        counter = flaky_eigh(fail_at=0)  # fail_at=0 never fires: pure counter
        sim = Simulator(cache=DecompositionCache(), max_workers=1)
        gate = threading.Event()
        release = threading.Event()

        async def scenario():
            # Occupy the only pool thread so the next submit stays pending.
            blocker = sim._executor().submit(
                lambda: (gate.set(), release.wait(5))
            )
            await asyncio.to_thread(gate.wait, 5)
            task = asyncio.ensure_future(sim.submit(_plan(1, seed=9), 64))
            await asyncio.sleep(0)
            assert sim.pending_submissions == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The done-callback may land a beat after the cancellation.
            for _ in range(200):
                if sim.pending_submissions == 0:
                    break
                await asyncio.sleep(0.01)
            assert sim.pending_submissions == 0
            release.set()
            blocker.result(timeout=5)

        asyncio.run(scenario())
        # The cancelled compile never reached eigh.
        assert counter.eigh_calls == 0
        sim.close()
