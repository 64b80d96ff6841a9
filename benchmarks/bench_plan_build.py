"""Benchmark: plan build, the covariance-admission stage.

Every raw covariance matrix a plan receives is validated once on entry
(square, Hermitian, finite, diagonal equal to the branch powers) before
anything is compiled.  On the small matrices of a sweep or a service
request that validation is the whole cost of building the plan, so it
shows up directly in warm sweep and serve latency.  Two shapes are timed:

* **sweep** — ``SimulationPlan.add`` of 16 raw 4-branch matrices with
  Doppler on every third entry, the shape of a warm ``repro batch`` sweep;
* **serve** — ``plan_from_payload`` of a 2-entry, 3-branch submission, the
  shape ``repro serve`` decodes per request.

Both check that the plan holds the submitted matrices byte for byte, so
the untimed run (``--benchmark-disable``) still asserts something.
"""

import json

import numpy as np

from repro.engine import DopplerSpec, SimulationPlan
from repro.experiments.scaling import exponential_correlation_covariance
from repro.service.protocol import plan_from_payload, plan_to_payload

SWEEP_ENTRIES = 16
SWEEP_BRANCHES = 4
SERVE_ENTRIES = 2
SERVE_BRANCHES = 3
DOPPLER_EVERY = 3


def _matrices(count, branches, seed):
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(count):
        rho = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        powers = rng.uniform(0.5, 2.0, branches)
        matrices.append(
            exponential_correlation_covariance(branches, rho) * np.sqrt(np.outer(powers, powers))
        )
    return matrices


def _build_sweep(matrices):
    plan = SimulationPlan()
    for index, matrix in enumerate(matrices):
        plan.add(
            matrix,
            seed=index,
            doppler=(
                DopplerSpec(normalized_doppler=0.05, n_points=128)
                if index % DOPPLER_EVERY == DOPPLER_EVERY - 1
                else None
            ),
            label=f"sweep-{index}",
        )
    return plan


def _assert_holds(plan, matrices):
    assert len(plan.entries) == len(matrices)
    for entry, matrix in zip(plan.entries, matrices):
        assert entry.spec.matrix.tobytes() == np.asarray(matrix, dtype=complex).tobytes()


def test_bench_plan_build_sweep(benchmark):
    matrices = _matrices(SWEEP_ENTRIES, SWEEP_BRANCHES, seed=17)
    plan = benchmark(_build_sweep, matrices)
    _assert_holds(plan, matrices)


def test_bench_plan_from_payload_serve(benchmark):
    matrices = _matrices(SERVE_ENTRIES, SERVE_BRANCHES, seed=29)
    source = SimulationPlan()
    for index, matrix in enumerate(matrices):
        source.add(matrix, seed=index)
    # The server decodes a freshly parsed JSON body, as here.
    payload = json.loads(json.dumps(plan_to_payload(source, 256)))
    plan, n_samples = benchmark(plan_from_payload, payload)
    assert n_samples == 256
    _assert_holds(plan, matrices)
