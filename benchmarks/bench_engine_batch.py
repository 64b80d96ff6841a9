"""Benchmark: batched engine vs. looped generation across batch sizes.

Reproduces the ``scaling-batch`` comparison — B small covariance specs
generated by looping :class:`repro.core.generator.RayleighFadingGenerator`
versus one plan → compile → execute pass of :mod:`repro.engine` — and times
the three execution models (looped, batched with a warm decomposition cache,
and execute-only on a precompiled plan) with pytest-benchmark for
B ∈ {1, 16, 256}.

The module fixture prints the experiment report, which records the measured
speedups and the decomposition-cache hit/miss counters; the engine targets a
>= 5x wall-clock speedup over the looped path at B = 256 in this
decomposition-bound regime (small matrices, short blocks).
"""

import numpy as np
import pytest

from repro.core.generator import RayleighFadingGenerator
from repro.engine import SimulationEngine, SimulationPlan
from repro.experiments import run_experiment
from repro.experiments.scaling import batch_sweep_specs
from repro.models import coerce_fading, get_fading_model, reference_fading_samples


@pytest.fixture(scope="module", autouse=True)
def reproduce_table(print_report):
    print_report(run_experiment("scaling-batch", batch_sizes=(1, 16, 256)))


N_BRANCHES = 4
N_SAMPLES = 64
BATCH_SIZES = [1, 16, 256]


def _plan_and_seeds(batch_size):
    specs = batch_sweep_specs(batch_size, N_BRANCHES)
    plan = SimulationPlan.from_specs(specs, seed=batch_size)
    return specs, plan, [entry.seed for entry in plan]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_looped_generation(benchmark, batch_size):
    """Time: B specs through per-spec generators (one decomposition each)."""
    specs, _, seeds = _plan_and_seeds(batch_size)

    def kernel():
        return [
            RayleighFadingGenerator(spec, rng=seed).generate_gaussian(N_SAMPLES)
            for spec, seed in zip(specs, seeds)
        ]

    blocks = benchmark(kernel)
    assert len(blocks) == batch_size
    assert blocks[0].samples.shape == (N_BRANCHES, N_SAMPLES)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_batched_warm_cache(benchmark, batch_size):
    """Time: plan -> compile -> execute with every decomposition cached."""
    _, plan, _ = _plan_and_seeds(batch_size)
    engine = SimulationEngine()
    engine.run(plan, N_SAMPLES)  # populate the cache

    result = benchmark(engine.run, plan, N_SAMPLES)
    assert result.n_entries == batch_size
    assert result.compile_report.cache_hits == batch_size
    assert result.compile_report.cache_misses == 0


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_execute_precompiled(benchmark, batch_size):
    """Time: execute-only on a precompiled plan (compile-once usage)."""
    _, plan, _ = _plan_and_seeds(batch_size)
    engine = SimulationEngine()
    compiled = engine.compile(plan)

    result = benchmark(engine.run, compiled, N_SAMPLES)
    assert result.n_entries == batch_size


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_execute_precompiled_rician(benchmark, batch_size):
    """Time: execute-only with the Rician fading transform in the kernel.

    The Rician model is the cheapest non-trivial member of the zoo (two
    broadcast ufuncs, no scratch envelopes), so its delta over the plain
    ``test_bench_execute_precompiled`` run bounds the fading seam's
    overhead on the fast path.
    """
    specs = batch_sweep_specs(batch_size, N_BRANCHES)
    plan = SimulationPlan.from_specs(
        specs, seed=batch_size, fading={"model": "rician", "shape": 4.0}
    )
    engine = SimulationEngine()
    compiled = engine.compile(plan)

    result = benchmark(engine.run, compiled, N_SAMPLES)
    assert result.n_entries == batch_size
    assert result.blocks[0].metadata["fading"]["model"] == "rician"


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_execute_precompiled_nakagami(benchmark, batch_size):
    """Time: execute-only with the Nakagami envelope map in the kernel.

    The costliest member of the zoo: each sample's target envelope needs
    the inverse regularized incomplete gamma function (a table-seeded
    Newton step on scipy's ``gammainc`` / ``gammaincc``).  The first
    block is checked against the looped scalar reference at the model's
    declared ``rtol``.
    """
    fading = coerce_fading({"model": "nakagami", "shape": 1.5})
    specs = batch_sweep_specs(batch_size, N_BRANCHES)
    plan = SimulationPlan.from_specs(specs, seed=batch_size, fading=fading)
    engine = SimulationEngine()
    compiled = engine.compile(plan)

    result = benchmark(engine.run, compiled, N_SAMPLES)
    assert result.n_entries == batch_size
    assert result.blocks[0].metadata["fading"]["model"] == "nakagami"
    plain = SimulationPlan.from_specs(specs, seed=batch_size)
    base = engine.run(plain, N_SAMPLES).blocks[0].samples
    reference = reference_fading_samples(
        base, specs[0].gaussian_variances, fading, seed=plan[0].seed
    )
    rtol = get_fading_model("nakagami").rtol
    assert np.allclose(result.blocks[0].samples, reference, rtol=rtol, atol=1e-15)


def test_bench_batched_equals_looped():
    """Correctness guard: the timed paths produce bit-identical samples."""
    specs, plan, seeds = _plan_and_seeds(256)
    engine = SimulationEngine()
    result = engine.run(plan, N_SAMPLES)
    for spec, seed, block in zip(specs, seeds, result.blocks):
        reference = RayleighFadingGenerator(spec, rng=seed).generate_gaussian(N_SAMPLES)
        assert np.array_equal(reference.samples, block.samples)
