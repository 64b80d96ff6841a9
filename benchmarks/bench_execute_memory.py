"""Benchmark: the hot-path execute memory architecture (PR 6).

Two claims are measured here:

* **Plan memory tier** — a warm ``engine.run(plan)`` on a long-lived engine
  is served by the in-memory compiled-plan tier: zero disk I/O, zero
  digest verification, zero decompositions.  The baseline is the PR 5 warm
  path, a compiled-plan *disk* hit per run (a fresh
  ``CompiledPlanCache(cache_dir)`` per run, whose memory tier is empty).
* **Fused, allocation-light execute** — the IDFT→coloring pipeline runs
  through preallocated scratch (``matmul_into``/``ifft_into``, in-place
  Gaussian scaling, a ring buffer for Doppler leftovers), so peak execute
  allocation drops versus the unfused two-pass kernels it replaced.  The
  unfused reference is reproduced inline (fresh arrays at every stage,
  ``np.concatenate`` buffer growth) so the ratio is measured, not assumed.

Throughput benches cover snapshot and Doppler plans at B ∈ {16, 64, 256}.
Peak-allocation figures (tracemalloc) are written in the pytest-benchmark
JSON schema — ``{"benchmarks": [{"name": ..., "stats": {"median": ...}}]}``
— to the path named by ``REPRO_BENCH_ALLOC_JSON`` (default
``bench_execute_alloc.json`` next to the timing JSON), so
``compare_benchmarks.py`` gates allocation regressions exactly like timing
regressions.

Like ``bench_cache_persistence``, the warm phases share the directory named
by ``REPRO_BENCH_CACHE_DIR`` when CI provides one.
"""

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.channels.idft_generator import batched_doppler_blocks
from repro.engine import (
    CompiledPlanCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
    execute_plan,
)
from repro.experiments.scaling import exponential_correlation_covariance

WARM_BATCH = 16
WARM_BRANCHES = 128
WARM_SAMPLES = 256

EXEC_BATCHES = [16, 64, 256]
EXEC_BRANCHES = 4
EXEC_SAMPLES = 512
DOPPLER_POINTS = 256


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    """The shared cache directory: ``REPRO_BENCH_CACHE_DIR`` or a tmp dir."""
    configured = os.environ.get("REPRO_BENCH_CACHE_DIR", "").strip()
    if configured:
        root = Path(configured)
        root.mkdir(parents=True, exist_ok=True)
        return root
    return tmp_path_factory.mktemp("bench-execute-cache")


@pytest.fixture(scope="module")
def alloc_records():
    """Collect peak-allocation figures; spill them as benchmark-schema JSON."""
    records = {}
    yield records
    target = os.environ.get("REPRO_BENCH_ALLOC_JSON", "").strip()
    if not target:
        target = "bench_execute_alloc.json"
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"median": float(peak)}}
            for name, peak in sorted(records.items())
        ]
    }
    Path(target).write_text(json.dumps(payload, indent=2))


def _warm_plan():
    """B distinct large snapshot specs (the bench_cache_persistence family)."""
    base = exponential_correlation_covariance(WARM_BRANCHES)
    specs = [(1.0 + 0.01 * index) * base for index in range(WARM_BATCH)]
    return SimulationPlan.from_specs(specs, seed=WARM_BRANCHES)


def _exec_plan(batch_size, doppler):
    base = exponential_correlation_covariance(EXEC_BRANCHES)
    plan = SimulationPlan()
    for index in range(batch_size):
        plan.add(
            (1.0 + 0.01 * index) * base,
            seed=1000 + index,
            doppler=(
                DopplerSpec(normalized_doppler=0.05, n_points=DOPPLER_POINTS)
                if doppler
                else None
            ),
        )
    return plan


def test_bench_warm_run_memory_tier(benchmark, cache_root):
    """Time: warm ``run(plan)`` end-to-end, served by the memory tier."""
    cache_dir = cache_root / "warm-run"
    engine = SimulationEngine(cache_dir=cache_dir)
    plan = _warm_plan()
    engine.run(plan, WARM_SAMPLES)  # populate every tier

    result = benchmark(engine.run, plan, WARM_SAMPLES)
    assert result.compile_report.plan_cache_hits == 1
    assert result.compile_report.plan_memory_hits == 1


def _disk_hit_run(cache_dir, plan):
    """One warm ``run(plan)`` served from disk: a fresh plan cache per run."""
    return SimulationEngine(plan_cache=CompiledPlanCache(cache_dir)).run(
        plan, WARM_SAMPLES
    )


def test_bench_warm_run_disk_tier(benchmark, cache_root):
    """Time: warm ``run(plan)`` served by the disk tier (no memory tier)."""
    cache_dir = cache_root / "warm-run"
    SimulationEngine(cache_dir=cache_dir).run(plan := _warm_plan(), WARM_SAMPLES)

    result = benchmark(_disk_hit_run, cache_dir, plan)
    assert result.compile_report.plan_cache_hits == 1
    assert result.compile_report.plan_memory_hits == 0


@pytest.mark.parametrize("batch_size", EXEC_BATCHES)
def test_bench_execute_snapshot(benchmark, batch_size):
    """Time: fused execute of a compiled snapshot plan."""
    engine = SimulationEngine()
    compiled = engine.compile(_exec_plan(batch_size, doppler=False))
    result = benchmark(execute_plan, compiled, EXEC_SAMPLES)
    assert result.n_entries == batch_size


@pytest.mark.parametrize("batch_size", EXEC_BATCHES)
def test_bench_execute_doppler(benchmark, batch_size):
    """Time: fused execute of a compiled Doppler plan."""
    engine = SimulationEngine()
    compiled = engine.compile(_exec_plan(batch_size, doppler=True))
    result = benchmark(execute_plan, compiled, EXEC_SAMPLES)
    assert result.n_entries == batch_size


def _peak_alloc(kernel, repeats=3):
    """Median tracemalloc peak over ``repeats`` runs of ``kernel``."""
    peaks = []
    for _ in range(repeats):
        tracemalloc.start()
        try:
            kernel()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return sorted(peaks)[len(peaks) // 2]


def _unfused_doppler_reference(compiled, n_samples):
    """The pre-fusion Doppler execute: fresh arrays, concatenate growth.

    Mirrors the replaced implementation stage for stage so the fused
    kernel's allocation win is measured against what actually shipped in
    PR 5 — per-call Gaussian draw, fresh weighted/IDFT/matmul arrays, and
    ``np.concatenate`` leftover buffering.
    """
    from repro.random import ensure_rng, spawn_rngs

    results = []
    for group in compiled.groups:
        doppler = group.doppler
        m = doppler.n_points
        streams = [
            spawn_rngs(ensure_rng(entry.seed), entry.n_branches)
            for entry in group.entries
        ]
        branch_rngs = [rng for branch in streams for rng in branch]
        n_blocks = -(-n_samples // m)
        white = batched_doppler_blocks(
            group.doppler_filter,
            branch_rngs,
            n_blocks=n_blocks,
            input_variance_per_dim=doppler.input_variance_per_dim,
        ).reshape(group.batch_size, group.n_branches, n_blocks * m)
        colored = np.matmul(group.coloring_stack, white)
        colored /= np.sqrt(group.sample_variances)[:, np.newaxis, np.newaxis]
        buffer = np.concatenate([colored[:, :, :0], colored], axis=2)
        results.append(buffer[:, :, :n_samples])
    return results


@pytest.mark.parametrize("batch_size", EXEC_BATCHES)
def test_peak_allocation_doppler(alloc_records, batch_size):
    """Record the fused Doppler execute's peak allocation (gated metric)."""
    engine = SimulationEngine()
    compiled = engine.compile(_exec_plan(batch_size, doppler=True))
    peak = _peak_alloc(lambda: execute_plan(compiled, EXEC_SAMPLES))
    alloc_records[f"peak_alloc_doppler[B={batch_size}]"] = peak
    traced = execute_plan(compiled, EXEC_SAMPLES, measure_allocation=True)
    assert traced.peak_alloc_bytes is not None and traced.peak_alloc_bytes > 0


@pytest.mark.parametrize("batch_size", EXEC_BATCHES)
def test_peak_allocation_snapshot(alloc_records, batch_size):
    """Record the fused snapshot execute's peak allocation (gated metric)."""
    engine = SimulationEngine()
    compiled = engine.compile(_exec_plan(batch_size, doppler=False))
    peak = _peak_alloc(lambda: execute_plan(compiled, EXEC_SAMPLES))
    alloc_records[f"peak_alloc_snapshot[B={batch_size}]"] = peak


def test_fused_doppler_allocation_beats_unfused(alloc_records):
    """The fused Doppler execute at B=256 allocates ≥ 25% less at peak than
    the unfused two-pass reference it replaced (the PR 6 acceptance bar)."""
    batch_size = EXEC_BATCHES[-1]
    engine = SimulationEngine()
    compiled = engine.compile(_exec_plan(batch_size, doppler=True))
    fused = _peak_alloc(lambda: execute_plan(compiled, EXEC_SAMPLES))
    unfused = _peak_alloc(lambda: _unfused_doppler_reference(compiled, EXEC_SAMPLES))
    assert fused <= 0.75 * unfused, (
        f"fused Doppler execute peak {fused} bytes is not >= 25% below the "
        f"unfused reference's {unfused} bytes"
    )


def test_report_execute_memory(cache_root, capsys):
    """Print the measured warm-run speedup and allocation ratio."""
    import time

    cache_dir = cache_root / "warm-run"
    plan = _warm_plan()
    SimulationEngine(cache_dir=cache_dir).run(plan, WARM_SAMPLES)

    def best_of(callable_, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    memory_engine = SimulationEngine(cache_dir=cache_dir)
    memory_engine.run(plan, WARM_SAMPLES)  # promote into the memory tier
    warm_memory = best_of(lambda: memory_engine.run(plan, WARM_SAMPLES))
    warm_disk = best_of(lambda: _disk_hit_run(cache_dir, plan))

    batch_size = EXEC_BATCHES[-1]
    compiled = SimulationEngine().compile(
        _exec_plan(batch_size, doppler=True)
    )
    fused = _peak_alloc(lambda: execute_plan(compiled, EXEC_SAMPLES))
    unfused = _peak_alloc(lambda: _unfused_doppler_reference(compiled, EXEC_SAMPLES))
    with capsys.disabled():
        print(
            f"\n[bench_execute_memory] warm run(plan) B={WARM_BATCH}, "
            f"N={WARM_BRANCHES}: memory tier {warm_memory:.4f}s vs disk tier "
            f"{warm_disk:.4f}s ({warm_disk / warm_memory:.2f}x); Doppler "
            f"execute B={batch_size} peak alloc: fused "
            f"{fused / 1024 / 1024:.1f} MiB vs unfused "
            f"{unfused / 1024 / 1024:.1f} MiB "
            f"({(1 - fused / unfused) * 100:.0f}% lower)"
        )
