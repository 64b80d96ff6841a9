"""Benchmark + reproduction of the branch-count scaling experiment.

Prints the throughput/accuracy sweep over N and times both generation modes
as the number of correlated branches grows, including a bounded-memory
variant that streams a one-entry plan through ``Simulator.stream``.
"""

import numpy as np
import pytest

from repro.api import Simulator
from repro.core import CovarianceSpec, RayleighFadingGenerator, RealTimeRayleighGenerator
from repro.engine import SimulationPlan
from repro.experiments import paper_values as pv
from repro.experiments import run_experiment
from repro.experiments.scaling import exponential_correlation_covariance


@pytest.fixture(scope="module", autouse=True)
def reproduce_table(print_report):
    print_report(
        run_experiment(
            "scaling-n", branch_counts=(2, 4, 8, 16, 32, 64), snapshot_samples=30_000
        )
    )


SNAPSHOT_SAMPLES = 10_000


@pytest.mark.parametrize("n_branches", [2, 8, 32, 64])
def test_bench_snapshot_scaling(benchmark, n_branches):
    """Time: 10k snapshot samples vs. the number of branches."""
    spec = CovarianceSpec.from_covariance_matrix(
        exponential_correlation_covariance(n_branches)
    )
    generator = RayleighFadingGenerator(spec, rng=0)
    samples = benchmark(generator.generate, SNAPSHOT_SAMPLES)
    assert samples.shape == (n_branches, SNAPSHOT_SAMPLES)


@pytest.mark.parametrize("n_branches", [2, 8, 32])
def test_bench_realtime_scaling(benchmark, n_branches):
    """Time: one 1024-point Doppler-shaped block vs. the number of branches."""
    spec = CovarianceSpec.from_covariance_matrix(
        exponential_correlation_covariance(n_branches)
    )
    generator = RealTimeRayleighGenerator(
        spec, normalized_doppler=pv.NORMALIZED_DOPPLER, n_points=1024, rng=0
    )
    samples = benchmark(generator.generate, 1)
    assert samples.shape == (n_branches, 1024)


def test_bench_chunked_streaming_statistics(benchmark):
    """Time: streaming covariance/power accumulation over 10 x 10k-sample chunks."""
    covariance = exponential_correlation_covariance(8)
    plan = SimulationPlan.from_specs([covariance], seeds=[3])
    sim = Simulator()

    def kernel():
        accumulator, total = np.zeros_like(covariance), 0
        for batch in sim.stream(plan, block_size=10_000, n_blocks=10):
            samples = batch.blocks[0].samples
            accumulator += samples @ samples.conj().T
            total += samples.shape[1]
        return accumulator / total, total

    estimate, n_samples = benchmark(kernel)
    assert n_samples == 100_000
    assert np.max(np.abs(estimate - covariance)) < 0.1
