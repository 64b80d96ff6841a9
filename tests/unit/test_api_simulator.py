"""Unit tests for the unified session API (:mod:`repro.api`).

The acceptance contract: ``Simulator(backend="numpy")`` results are
bit-identical to the pre-redesign helpers and to looped single-spec
generators for the same seeds, and ``asyncio.gather`` over several
``sim.submit(...)`` calls completes with per-plan results matching the
synchronous ``sim.run(...)``.
"""

import asyncio
import gc
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Simulator, default_simulator
from repro.channels import MIMOArrayScenario, ScenarioSweep
from repro.core import CovarianceSpec, RayleighFadingGenerator
from repro.core.pipeline import generate_correlated_envelopes, generate_from_scenario
from repro.engine import BatchResult, DecompositionCache, SimulationPlan
from repro.exceptions import ParallelExecutionError, SpecificationError
from repro.parallel import run_plan_parallel


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
        assert sim.backend.name == "numpy"
        assert sim.max_workers is None
        assert sim.cache is default_simulator().cache  # both use the shared cache

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(SpecificationError):
            Simulator(max_workers=0)

    def test_default_simulator_is_a_singleton(self):
        assert default_simulator() is default_simulator()

    def test_cache_stats_snapshot(self):
        sim = Simulator(cache=DecompositionCache())
        sim.run(_plan(2), 4)
        stats = sim.cache_stats
        assert stats.misses > 0

    def test_cache_dir_builds_persistent_session(self, tmp_path):
        with Simulator(cache_dir=tmp_path) as sim:
            assert sim.cache_dir == str(tmp_path)
            assert sim.cache is not default_simulator().cache
            reference = sim.run(_plan(2), 8)
        # A new session over the same directory loads the whole compiled
        # plan from disk — no per-matrix lookups at all — and reproduces
        # the run byte-for-byte.
        with Simulator(cache_dir=tmp_path) as warm:
            result = warm.run(_plan(2), 8)
            assert result.compile_report.plan_cache_hits == 1
            assert warm.engine.plan_cache.stats.hits == 1
            assert warm.cache_stats.lookups == 0  # decomposition tier untouched
        for block, expected in zip(result.blocks, reference.blocks):
            assert block.samples.tobytes() == expected.samples.tobytes()

    def test_cache_dir_conflicts_with_explicit_cache(self, tmp_path):
        with pytest.raises(SpecificationError):
            Simulator(cache=DecompositionCache(), cache_dir=tmp_path)

    def test_explicit_cache_with_disk_tier_reaches_workers(self, tmp_path):
        # The documented "mix" route: a hand-built persistent cache must
        # hand its directory to process-pool workers too.
        with Simulator(
            cache=DecompositionCache(cache_dir=tmp_path), max_workers=2
        ) as sim:
            assert sim.cache_dir == str(tmp_path)
            # ... but NOT the compiled-plan tier: an explicitly hand-configured
            # cache keeps the plan tier detached in the parent, so workers must
            # keep it detached too (serial and parallel runs agree on whether
            # whole-plan short-circuits may happen).
            assert sim.engine.plan_cache.cache_dir is None
            assert sim._plan_cache_dir is None

    def test_worker_engine_mirrors_parent_plan_tier(self, tmp_path, monkeypatch):
        # Exercise the worker entry points directly (no pool needed): the
        # plan tier attaches in the worker exactly when the parent forwards
        # its plan-cache directory.
        from repro import api
        from repro.engine import resolve_backend

        monkeypatch.setattr(api, "_WORKER_ENGINE", None)
        backend = resolve_backend(None)
        api._init_worker(backend, str(tmp_path / "a"), None)
        api._run_subplan(_plan(2), 8)
        assert (tmp_path / "a" / "decompositions").is_dir()
        assert not (tmp_path / "a" / "plans").exists()

        api._init_worker(backend, str(tmp_path / "b"), str(tmp_path / "b"))
        api._run_subplan(_plan(2), 8)
        assert (tmp_path / "b" / "plans").is_dir()

    def test_explicit_memory_only_cache_overrides_env_for_workers(
        self, tmp_path, monkeypatch
    ):
        # An explicit cache opt-out must hold in workers even when
        # REPRO_CACHE_DIR is exported: parallel runs may not silently gain
        # a disk tier the caller disabled.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Simulator(cache=DecompositionCache(maxsize=0), max_workers=2) as sim:
            assert sim.cache_dir is None

    def test_default_session_forwards_env_dir_to_workers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Simulator(max_workers=2) as sim:
            assert sim.cache_dir == str(tmp_path)


class TestEnvelopes:
    def test_matrix_bit_identical_to_classic_helper(self):
        via_session = Simulator().envelopes(K2, 256, seed=9)
        via_helper = generate_correlated_envelopes(K2, 256, rng=9)
        assert np.array_equal(via_session.envelopes, via_helper.envelopes)

    def test_bit_identical_to_standalone_generator(self):
        spec = CovarianceSpec.from_covariance_matrix(K2)
        block = Simulator().envelopes(spec, 128, seed=5, return_gaussian=True)
        reference = RayleighFadingGenerator(
            spec, rng=5, cache=DecompositionCache(maxsize=0)
        ).generate_gaussian(128)
        assert np.array_equal(block.samples, reference.samples)

    def test_envelope_powers_variant_matches_helper(self):
        matrix = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=complex)
        via_session = Simulator().envelopes(matrix, 64, seed=2, envelope_powers=True)
        via_helper = generate_correlated_envelopes(matrix, 64, rng=2, envelope_powers=True)
        assert np.array_equal(via_session.envelopes, via_helper.envelopes)

    def test_doppler_mode_matches_helper(self):
        via_session = Simulator().envelopes(K2, 100, seed=3, normalized_doppler=0.05)
        via_helper = generate_correlated_envelopes(K2, 100, rng=3, normalized_doppler=0.05)
        assert np.array_equal(via_session.envelopes, via_helper.envelopes)

    def test_scenario_source_matches_helper(self):
        scenario = MIMOArrayScenario(
            n_antennas=3, spacing_wavelengths=0.5, angular_spread_rad=0.2
        )
        powers = [1.0, 1.0, 1.0]
        via_session = Simulator().envelopes(scenario, 64, seed=4, gaussian_powers=powers)
        via_helper = generate_from_scenario(scenario, powers, 64, rng=4)
        assert np.array_equal(via_session.envelopes, via_helper.envelopes)

    def test_scenario_requires_powers(self):
        scenario = MIMOArrayScenario(
            n_antennas=2, spacing_wavelengths=0.5, angular_spread_rad=0.2
        )
        with pytest.raises(SpecificationError, match="gaussian_powers"):
            Simulator().envelopes(scenario, 16)

    def test_invalid_sample_count_rejected(self):
        with pytest.raises(SpecificationError):
            Simulator().envelopes(K2, 0)


class TestRun:
    def test_run_matches_looped_generators(self):
        plan = _plan()
        result = Simulator(cache=DecompositionCache()).run(plan, 32)
        for entry, block in zip(plan, result.blocks):
            reference = RayleighFadingGenerator(
                entry.spec, rng=entry.seed, cache=DecompositionCache(maxsize=0)
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

    def test_run_accepts_scenario_sweep(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[3],
            spacing_wavelengths=[0.5, 1.0],
            angular_spread_rad=[0.1, 0.2],
        )
        result = Simulator(cache=DecompositionCache()).run(
            sweep, 16, gaussian_powers=[1.0, 1.0, 1.0], seed=13
        )
        assert result.n_entries == len(sweep)
        labels = [block.metadata["label"] for block in result.blocks]
        assert labels == list(sweep.labels)
        # Equivalent to converting the sweep by hand.
        manual = Simulator(cache=DecompositionCache()).run(
            sweep.to_plan([1.0, 1.0, 1.0], seed=13), 16
        )
        for via_sweep, via_plan in zip(result.blocks, manual.blocks):
            assert np.array_equal(via_sweep.samples, via_plan.samples)

    def test_sweep_requires_powers(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[2],
            spacing_wavelengths=[0.5],
            angular_spread_rad=[0.1],
        )
        with pytest.raises(SpecificationError, match="gaussian_powers"):
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

    def test_parallel_run_with_unregistered_backend_instance(self):
        # The instance itself travels to the workers; no registry lookup.
        from repro.engine import ScipyBackend

        backend = ScipyBackend(driver="evd")
        plan = _plan(4)
        with Simulator(
            cache=DecompositionCache(), backend=backend, max_workers=2
        ) as sim:
            parallel = sim.run(plan, 12)
        sequential = Simulator(cache=DecompositionCache(), backend=backend).run(plan, 12)
        for par_block, seq_block in zip(parallel.blocks, sequential.blocks):
            assert np.array_equal(par_block.samples, seq_block.samples)
        assert parallel.backend == "scipy"

    def test_sweep_accepts_2d_array_of_per_scenario_powers(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[2],
            spacing_wavelengths=[0.5, 1.0],
            angular_spread_rad=[0.1],
        )
        powers = np.array([[1.0, 2.0], [3.0, 4.0]])
        via_array = Simulator(cache=DecompositionCache()).run(
            sweep, 8, gaussian_powers=powers, seed=21
        )
        via_list = Simulator(cache=DecompositionCache()).run(
            sweep, 8, gaussian_powers=[powers[0], powers[1]], seed=21
        )
        for a, b in zip(via_array.blocks, via_list.blocks):
            assert np.array_equal(a.samples, b.samples)

    def test_single_entry_plan_stays_in_process(self):
        # No pool spin-up for B=1; result identical either way.
        plan = _plan(1)
        with Simulator(cache=DecompositionCache(), max_workers=4) as sim:
            a = sim.run(plan, 8)
            assert sim._process_pool is None
        b = Simulator(cache=DecompositionCache()).run(plan, 8)
        assert np.array_equal(a.blocks[0].samples, b.blocks[0].samples)

    def test_summary_reports_cache_counters(self):
        sim = Simulator(cache=DecompositionCache())
        sim.run(_plan(3), 8)
        summary = sim.run(_plan(3), 8).summary()
        assert "decomposition cache" in summary
        assert "3 hits" in summary
        assert "hit rate" in summary
        assert "backend=numpy" in summary


def _same_bytes(result, reference):
    assert len(result.blocks) == len(reference.blocks)
    for block, expected in zip(result.blocks, reference.blocks):
        assert block.samples.tobytes() == expected.samples.tobytes()


def _pool_workers(sim):
    """The live session pool's worker processes."""
    return list(sim._process_pool._processes.values())


def _wait_exited(processes, timeout=30.0):
    # Poll: the pool's own manager thread may reap a worker between our
    # wake-up and our waitpid, and only its bookkeeping then sets exitcode.
    deadline = time.monotonic() + timeout
    for process in processes:
        while process.exitcode is None and time.monotonic() < deadline:
            process.join(0.05)
        assert process.exitcode is not None, f"worker {process.pid} still running"


@pytest.fixture
def built_pools(monkeypatch):
    """Every process pool a session builds during the test, in order."""
    from repro import api

    built = []

    class CountingPool(api.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(api, "ProcessPoolExecutor", CountingPool)
    return built


class TestSessionPool:
    """The process pool is a session resource: built once, closed with it."""

    def test_one_pool_serves_every_run_bit_identically(self, built_pools):
        plans = [_plan(4, seed=seed) for seed in (11, 12, 13)]
        with Simulator(cache=DecompositionCache(), max_workers=2) as sim:
            assert sim._process_pool is None  # lazy: nothing started yet
            worker_pids = set()
            for plan in plans + plans:
                reference = Simulator(cache=DecompositionCache()).run(plan, 16)
                _same_bytes(sim.run(plan, 16), reference)
                worker_pids.add(frozenset(p.pid for p in _pool_workers(sim)))
        assert len(worker_pids) == 1  # the same workers served every run
        assert len(built_pools) == 1

    def test_concurrent_runs_share_one_pool(self, built_pools):
        # More workers and threads than cores, with a short switch interval,
        # so lazy pool creation and submits from many threads interleave.
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
        assert len(built_pools) == 1

    def test_repeated_plan_hits_warm_worker_caches(self):
        # Four entries over one matrix: each sub-plan compiles one unique
        # matrix, and each worker decomposes it at most once in its life.
        # Run 1 misses at least once, so of run 2's two sub-plans at most
        # one can miss — whichever workers the pool hands them to.
        spec = _plan(1).entries[0].spec
        plan = SimulationPlan.from_specs([spec] * 4, seed=5)
        with Simulator(cache=DecompositionCache(), max_workers=2) as sim:
            first = sim.run(plan, 8).compile_report
            second = sim.run(plan, 8).compile_report
        assert first.cache_misses >= 1
        assert second.cache_hits >= 1
        assert first.cache_misses + second.cache_misses <= 2

    def test_close_reaps_workers_and_later_runs_stay_in_process(self):
        plan = _plan(4)
        reference = Simulator(cache=DecompositionCache()).run(plan, 16)
        sim = Simulator(cache=DecompositionCache(), max_workers=2)
        _same_bytes(sim.run(plan, 16), reference)
        workers = _pool_workers(sim)
        assert workers
        sim.close()
        assert all(process.exitcode is not None for process in workers)
        assert sim._process_pool is None
        _same_bytes(sim.run(plan, 16), reference)
        assert sim._process_pool is None  # no pool rebuilt after close

    def test_killed_worker_fails_one_run_then_pool_is_rebuilt(self):
        import signal

        plan = _plan(4)
        reference = Simulator(cache=DecompositionCache()).run(plan, 16)
        with Simulator(cache=DecompositionCache(), max_workers=2) as sim:
            _same_bytes(sim.run(plan, 16), reference)
            broken = sim._process_pool
            workers = _pool_workers(sim)
            os.kill(workers[0].pid, signal.SIGKILL)
            # The pool notices the death and terminates the survivors; once
            # every worker is gone it refuses new work.
            _wait_exited(workers)
            with pytest.raises(ParallelExecutionError, match="parallel plan"):
                sim.run(plan, 16)
            assert sim._process_pool is None
            _same_bytes(sim.run(plan, 16), reference)
            assert sim._process_pool is not None
            assert sim._process_pool is not broken

    def test_unclosed_session_reaps_workers_when_collected(self):
        sim = Simulator(cache=DecompositionCache(), max_workers=2)
        sim.run(_plan(4), 8)
        workers = _pool_workers(sim)
        del sim
        gc.collect()
        _wait_exited(workers)


class TestStream:
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

    def test_submit_accepts_sweeps(self):
        sweep = ScenarioSweep.product(
            MIMOArrayScenario,
            n_antennas=[2],
            spacing_wavelengths=[0.5, 1.0],
            angular_spread_rad=[0.1],
        )

        async def one():
            with Simulator(cache=DecompositionCache()) as sim:
                return await sim.submit(sweep, 8, gaussian_powers=[1.0, 1.0], seed=2)

        result = asyncio.run(one())
        assert result.n_entries == 2

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

    def test_cancelled_submit_releases_pool_slot(self):
        """Regression: cancelling the awaitable must not orphan the work.

        With a single pool thread deliberately occupied, the submitted call
        has not started yet; cancelling the asyncio side must propagate to
        the pool future, drop the pending-submission count back to zero,
        and the cancelled work must never run.
        """
        import threading

        from conftest import FlakyBackend

        backend = FlakyBackend(fail_at=0)  # fail_at=0 never fires: pure counter
        sim = Simulator(backend=backend, cache=DecompositionCache(), max_workers=1)
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
        # The cancelled compile never reached the backend.
        assert backend.eigh_calls == 0
        sim.close()


class TestRunPlanParallelWrapper:
    def test_wrapper_matches_session(self):
        plan = _plan(4)
        blocks = run_plan_parallel(plan, 16, n_workers=2)
        session = Simulator(cache=DecompositionCache()).run(plan, 16)
        for block, expected in zip(blocks, session.blocks):
            assert np.array_equal(block.samples, expected.samples)

    def test_wrapper_accepts_backend(self):
        plan = _plan(3)
        blocks = run_plan_parallel(plan, 8, backend="scipy")
        reference = run_plan_parallel(plan, 8)
        for block, expected in zip(blocks, reference):
            assert np.array_equal(block.samples, expected.samples)
