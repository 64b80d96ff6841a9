"""Benchmark: batched Doppler substrate vs. looped real-time generation.

Reproduces the ``scaling-doppler-batch`` comparison — B small covariance
specs with a shared Doppler mode, generated by looping
:class:`repro.core.realtime.RealTimeRayleighGenerator` (one decomposition,
one Young–Beaulieu filter build, and one ``(N, M)`` IDFT dispatch per
scenario) versus one Doppler plan → compile → execute pass of
:mod:`repro.engine` (one shared filter build, one stacked IDFT over all
``B·N`` branch blocks, one stacked coloring matmul) — and times the three
execution models (looped, batched with a warm decomposition cache, and
execute-only on a precompiled plan) with pytest-benchmark for
B ∈ {1, 16, 64, 256}.

The module fixture prints the experiment report, which records the measured
speedups and the Doppler filter-reuse counters; the engine targets a >= 3x
wall-clock speedup over the looped path at B = 256.
"""

import numpy as np
import pytest

from repro.core.realtime import RealTimeRayleighGenerator
from repro.engine import DopplerSpec, SimulationEngine, SimulationPlan
from repro.experiments import run_experiment
from repro.experiments.scaling import batch_sweep_specs


@pytest.fixture(scope="module", autouse=True)
def reproduce_table(print_report):
    print_report(run_experiment("scaling-doppler-batch", batch_sizes=(1, 16, 64, 256)))


N_BRANCHES = 4
N_POINTS = 128
NORMALIZED_DOPPLER = 0.05
BATCH_SIZES = [1, 16, 64, 256]
DOPPLER = DopplerSpec(normalized_doppler=NORMALIZED_DOPPLER, n_points=N_POINTS)


def _plan_and_seeds(batch_size):
    specs = batch_sweep_specs(batch_size, N_BRANCHES)
    plan = SimulationPlan.from_specs(specs, seed=batch_size, doppler=DOPPLER)
    return specs, plan, [entry.seed for entry in plan]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_looped_realtime_generation(benchmark, batch_size):
    """Time: B specs through per-spec real-time generators."""
    specs, _, seeds = _plan_and_seeds(batch_size)

    def kernel():
        return [
            RealTimeRayleighGenerator(
                spec,
                normalized_doppler=NORMALIZED_DOPPLER,
                n_points=N_POINTS,
                rng=seed,
            ).generate_gaussian(1)
            for spec, seed in zip(specs, seeds)
        ]

    blocks = benchmark(kernel)
    assert len(blocks) == batch_size
    assert blocks[0].samples.shape == (N_BRANCHES, N_POINTS)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_doppler_batched_warm_cache(benchmark, batch_size):
    """Time: Doppler plan -> compile -> execute with every decomposition cached."""
    _, plan, _ = _plan_and_seeds(batch_size)
    engine = SimulationEngine()
    engine.run(plan, N_POINTS)  # populate the cache

    result = benchmark(engine.run, plan, N_POINTS)
    assert result.n_entries == batch_size
    assert result.compile_report.cache_hits == batch_size
    assert result.compile_report.cache_misses == 0
    assert result.compile_report.doppler_filters_built == 1
    assert result.compile_report.doppler_entries == batch_size


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_doppler_execute_precompiled(benchmark, batch_size):
    """Time: execute-only on a precompiled Doppler plan (compile-once usage)."""
    _, plan, _ = _plan_and_seeds(batch_size)
    engine = SimulationEngine()
    compiled = engine.compile(plan)

    result = benchmark(engine.run, compiled, N_POINTS)
    assert result.n_entries == batch_size


def test_bench_doppler_batched_equals_looped():
    """Correctness guard: the timed paths produce bit-identical samples."""
    specs, plan, seeds = _plan_and_seeds(256)
    engine = SimulationEngine()
    result = engine.run(plan, N_POINTS)
    for spec, seed, block in zip(specs, seeds, result.blocks):
        reference = RealTimeRayleighGenerator(
            spec,
            normalized_doppler=NORMALIZED_DOPPLER,
            n_points=N_POINTS,
            rng=seed,
        ).generate_gaussian(1)
        assert np.array_equal(reference.samples, block.samples)
