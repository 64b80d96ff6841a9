"""Benchmark: sharded sweep wall clock over a warm shared artifact cache.

The sharded runner (:mod:`repro.shard`) exists to spread one sweep across
worker subprocesses sharing a ``cache_dir``.  This module times the
steady-state configuration — every compile artifact already published, so
each worker's compile is a whole-plan warm hit and the run measures what
sharding actually adds: subprocess spawn/import, slice payload I/O, the
engine execute, and result publish/merge.  Phases run the *same* warm sweep
at 1, 2 and 4 shards, so the JSON artifact tracks the orchestration
overhead per shard count and ``compare_benchmarks.py`` flags regressions
(a slowdown here means the runner, worker, or store lock path got heavier
— the engine itself is covered by the other benches).

Workers fork from a warm launcher and stay: each later slice goes to an
idle worker, which builds a fresh engine for it, so after a phase's first
round no round forks.  The launcher's own start-up (interpreter + numpy
import, paid by the first run in a process and again when the shard
count changes the worker environment, which also retires the previous
launcher's workers) and the first round's forks are far longer than a
warm execute, so ``benchmark.pedantic`` runs one untimed warm-up round
and a bounded number of timed ones instead of letting calibration
average over them.

A correctness guard pins the invariant the numbers depend on (standing
invariant 7): the merged sharded result is byte-identical to the solo run
at every shard count.
"""

import os
from pathlib import Path

import pytest

from repro.engine import SimulationEngine
from repro.experiments.scaling import shard_sweep_plan
from repro.shard import partition_plan, run_sharded

N_ENTRIES = 8
N_BRANCHES = 32
N_SAMPLES = 2048
SHARD_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    """The shared cache directory: ``REPRO_BENCH_CACHE_DIR`` or a tmp dir."""
    configured = os.environ.get("REPRO_BENCH_CACHE_DIR", "").strip()
    if configured:
        root = Path(configured)
        root.mkdir(parents=True, exist_ok=True)
        return root
    return tmp_path_factory.mktemp("bench-shard")


def _plan():
    return shard_sweep_plan(N_ENTRIES, N_BRANCHES, seed=20050413)


@pytest.fixture(scope="module")
def warm_cache_dir(cache_root):
    """One populated cache directory shared by every phase of this module."""
    cache_dir = cache_root / "shard-sweep"
    # Publishing through a solo engine warms the plans/ tier (idempotent:
    # CI's second process finds the first one's artifact and re-verifies it).
    SimulationEngine(cache_dir=cache_dir).run(_plan(), N_SAMPLES)
    return cache_dir


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_bench_sharded_warm_sweep(benchmark, warm_cache_dir, tmp_path, n_shards):
    """Time: the full sharded run (spawn, execute, publish, merge), warm."""
    plan = _plan()
    # Publish every slice's compiled plan untimed: pedantic's warm-up round
    # does not run under --benchmark-disable, so the fixture's whole-plan
    # artifact alone would leave the slices cold.
    engine = SimulationEngine(cache_dir=warm_cache_dir)
    for plan_slice in partition_plan(plan, n_shards):
        engine.run(plan_slice.plan, N_SAMPLES)
    rounds = {"count": 0}

    def kernel():
        rounds["count"] += 1
        work_dir = tmp_path / f"work-{n_shards}-{rounds['count']}"
        outcome = run_sharded(
            plan,
            N_SAMPLES,
            n_shards=n_shards,
            cache_dir=warm_cache_dir,
            work_dir=work_dir,
        )
        assert outcome.ok
        return outcome

    outcome = benchmark.pedantic(kernel, rounds=3, iterations=1, warmup_rounds=1)
    # Steady state: every shard loaded its whole compiled plan warm.
    assert outcome.tier_totals()["plan_cache_hits"] == len(outcome.slices)
    assert outcome.tier_totals()["cache_misses"] == 0


def test_bench_sharded_equals_solo(warm_cache_dir, tmp_path):
    """Correctness guard (standing invariant 7): merged == solo, per count."""
    plan = _plan()
    solo = SimulationEngine().run(plan, N_SAMPLES)
    for n_shards in SHARD_COUNTS:
        outcome = run_sharded(
            plan,
            N_SAMPLES,
            n_shards=n_shards,
            cache_dir=warm_cache_dir,
            work_dir=tmp_path / f"guard-{n_shards}",
        )
        assert outcome.ok
        for merged_block, solo_block in zip(outcome.merged.blocks, solo.blocks):
            assert merged_block.samples.tobytes() == solo_block.samples.tobytes()


def test_report_shard_scaling(warm_cache_dir, tmp_path, capsys):
    """Print the measured wall clock per shard count (informational)."""
    import time

    plan = _plan()
    timings = {}
    for n_shards in SHARD_COUNTS:
        best = float("inf")
        for attempt in range(2):
            start = time.perf_counter()
            outcome = run_sharded(
                plan,
                N_SAMPLES,
                n_shards=n_shards,
                cache_dir=warm_cache_dir,
                work_dir=tmp_path / f"report-{n_shards}-{attempt}",
            )
            assert outcome.ok
            best = min(best, time.perf_counter() - start)
        timings[n_shards] = best
    with capsys.disabled():
        baseline = timings[SHARD_COUNTS[0]]
        parts = ", ".join(
            f"{n_shards} shard(s) {seconds:.3f}s ({baseline / seconds:.2f}x)"
            for n_shards, seconds in timings.items()
        )
        print(
            f"\n[bench_shard_scaling] B={N_ENTRIES}, N={N_BRANCHES}, "
            f"n_samples={N_SAMPLES}, warm cache: {parts}"
        )
