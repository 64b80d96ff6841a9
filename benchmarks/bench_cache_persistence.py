"""Benchmark: warm-start compilation from the persistent compiled-plan cache.

The persistent cache exists for one scenario: a *new process* repeating a
heavy sweep it (or CI, or another worker) has run before.  This module
times ``compile_plan`` over a sweep of B large covariance matrices in the
cache states that scenario passes through:

* **cold** — empty memory cache, no disk tier: every unique matrix pays
  its stacked ``O(N^3)`` eigendecomposition (the first-ever run);
* **warm memory** — populated decomposition cache: the within-process
  ceiling;
* **warm plan** — a fresh "process" loads the *whole* compiled plan from
  one ``plans/`` artifact, skipping grouping, per-matrix hashing,
  decompositions and stack assembly entirely.

``test_bench_compile_cold_mixed`` times the cold state on a sweep-shaped
plan instead: 16 entries of N = 4 that cycle the named suites' fading
models with Doppler on every third entry, so the plan splits into many
compile groups while its decompositions stack by signature.

The sweep uses **large** matrices (N = 64 and 128 branches) deliberately:
a disk hit costs one file read plus a SHA-256 over the payload, which is
O(N^2) bytes, while recomputing costs O(N^3), so the plan tier wins
exactly where decompositions are expensive and would *lose* on tiny
matrices, where recomputing an 8x8 eigh is cheaper than opening a file.
That trade-off is why decompositions and Doppler filters have no disk
tier of their own (ROADMAP item 8).

The cold/warm phases share one cache directory.  By default it is a
temporary directory populated inside this run; CI sets
``REPRO_BENCH_CACHE_DIR`` to a job-persistent path so the cold phase of one
step hands its artifacts to the warm phase of the next — an actual
cross-process warm start, not a simulation of one.

A correctness guard pins the invariant the speedup depends on: compiling
from a disk artifact yields byte-for-byte the samples a fresh computation
yields.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.coloring import compute_coloring
from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
    compile_plan,
)
from repro.experiments.paper_values import NORMALIZED_DOPPLER
from repro.experiments.scaling import exponential_correlation_covariance
from repro.models.workloads import NAMED_SUITES

BATCH_SIZE = 16
BRANCH_COUNTS = [64, 128]

MIXED_BRANCHES = 4
MIXED_DOPPLER_EVERY = 3
MIXED_FADINGS = tuple(suite.get("fading") for suite in NAMED_SUITES.values())


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    """The shared cache directory: ``REPRO_BENCH_CACHE_DIR`` or a tmp dir."""
    configured = os.environ.get("REPRO_BENCH_CACHE_DIR", "").strip()
    if configured:
        root = Path(configured)
        root.mkdir(parents=True, exist_ok=True)
        return root
    return tmp_path_factory.mktemp("bench-cache")


def _plan(n_branches, batch_size=BATCH_SIZE):
    """B distinct large specs (scaled exponential-correlation family)."""
    base = exponential_correlation_covariance(n_branches)
    specs = [(1.0 + 0.01 * index) * base for index in range(batch_size)]
    return SimulationPlan.from_specs(specs, seed=n_branches)


def _populate(cache_dir, n_branches):
    """Ensure the ``plans/`` tier holds the sweep's compiled plan."""
    compile_plan(
        _plan(n_branches),
        cache=DecompositionCache(),
        plan_cache=CompiledPlanCache(cache_dir),
    )


@pytest.mark.parametrize("n_branches", BRANCH_COUNTS)
def test_bench_compile_cold(benchmark, cache_root, n_branches):
    """Time: compile with nothing cached (fresh memory cache, no disk)."""
    plan = _plan(n_branches)

    def kernel():
        return compile_plan(
            plan, cache=DecompositionCache(), plan_cache=CompiledPlanCache()
        )

    compiled = benchmark(kernel)
    assert compiled.report.cache_misses == BATCH_SIZE
    # Leave the shared directory populated for the warm phases — in CI this
    # is what the next step's warm runs start from.
    _populate(cache_root / f"n{n_branches}", n_branches)


def _mixed_plan():
    """A sweep-shaped plan: suite fadings cycled, Doppler every third entry."""
    plan = SimulationPlan()
    for index in range(BATCH_SIZE):
        rho = (0.2 + 0.025 * index) * np.exp(0.4j * index)
        plan.add(
            exponential_correlation_covariance(MIXED_BRANCHES, rho),
            seed=index,
            doppler=(
                DopplerSpec(normalized_doppler=NORMALIZED_DOPPLER, n_points=128)
                if index % MIXED_DOPPLER_EVERY == MIXED_DOPPLER_EVERY - 1
                else None
            ),
            fading=MIXED_FADINGS[index % len(MIXED_FADINGS)],
        )
    return plan


def test_bench_compile_cold_mixed(benchmark):
    """Time: cold compile of a many-group plan (fresh decomposition cache)."""
    plan = _mixed_plan()

    def kernel():
        return compile_plan(plan, cache=DecompositionCache())

    compiled = benchmark(kernel)
    assert compiled.report.n_groups > 1
    assert compiled.report.cache_misses == BATCH_SIZE
    for index, entry in enumerate(plan):
        got = compiled.decomposition_for(index)
        want = compute_coloring(entry.spec.matrix)
        assert got.coloring_matrix.tobytes() == want.coloring_matrix.tobytes()
        assert got.effective_covariance.tobytes() == want.effective_covariance.tobytes()
        assert got.was_repaired == want.was_repaired
        assert repr(got.min_eigenvalue) == repr(want.min_eigenvalue)
        assert repr(got.extra) == repr(want.extra)


@pytest.mark.parametrize("n_branches", BRANCH_COUNTS)
def test_bench_compile_warm_memory(benchmark, cache_root, n_branches):
    """Time: compile with every decomposition already in memory."""
    plan = _plan(n_branches)
    cache = DecompositionCache()
    compile_plan(plan, cache=cache, plan_cache=CompiledPlanCache())

    compiled = benchmark(
        compile_plan, plan, cache=cache, plan_cache=CompiledPlanCache()
    )
    assert compiled.report.cache_hits == BATCH_SIZE


@pytest.mark.parametrize("n_branches", BRANCH_COUNTS)
def test_bench_compile_warm_plan(benchmark, cache_root, n_branches):
    """Time: load the whole compiled plan from one ``plans/`` artifact."""
    cache_dir = cache_root / f"n{n_branches}"
    _populate(cache_dir, n_branches)  # idempotent; guards solo/-k invocations
    plan = _plan(n_branches)

    def kernel():
        # A fresh plan cache per round models a fresh process; the fresh
        # (empty, detached-from-disk) decomposition cache proves nothing is
        # served per matrix — the artifact short-circuits the whole pass.
        return compile_plan(
            plan,
            cache=DecompositionCache(),
            plan_cache=CompiledPlanCache(cache_dir),
        )

    compiled = benchmark(kernel)
    assert compiled.report.plan_cache_hits == 1
    assert compiled.report.cache_hits == 0
    assert compiled.report.cache_misses == 0


def test_bench_warm_plan_equals_fresh():
    """Correctness guard: a compile served by the compiled-plan tier
    executes byte-for-byte equal to a fresh one."""
    import tempfile

    plan = _plan(64, batch_size=4)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = SimulationEngine(cache=DecompositionCache()).run(plan, 64)
        SimulationEngine(cache_dir=tmp).run(plan, 64)  # populate plans/

        # Whole-plan tier: zero per-matrix lookups, same bytes.
        plan_engine = SimulationEngine(cache_dir=tmp)
        from_plan = plan_engine.run(plan, 64)
        assert from_plan.compile_report.plan_cache_hits == 1
        assert plan_engine.cache.stats.lookups == 0
        for fresh_block, plan_block in zip(fresh.blocks, from_plan.blocks):
            assert fresh_block.samples.tobytes() == plan_block.samples.tobytes()


def test_report_warm_start_speedup(cache_root, capsys):
    """Print the measured cold vs. warm-tier compile times (informational)."""
    import time

    n_branches = BRANCH_COUNTS[-1]
    cache_dir = cache_root / f"n{n_branches}"
    _populate(cache_dir, n_branches)
    plan = _plan(n_branches)

    def best_of(callable_, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    cold = best_of(
        lambda: compile_plan(
            plan, cache=DecompositionCache(), plan_cache=CompiledPlanCache()
        )
    )
    warm_plan = best_of(
        lambda: compile_plan(
            plan, cache=DecompositionCache(), plan_cache=CompiledPlanCache(cache_dir)
        )
    )
    with capsys.disabled():
        print(
            f"\n[bench_cache_persistence] B={BATCH_SIZE}, N={n_branches}: "
            f"cold compile {cold:.4f}s, warm-plan compile {warm_plan:.4f}s "
            f"({cold / warm_plan:.2f}x warm-start speedup)"
        )
