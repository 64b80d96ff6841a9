"""Benchmark: serving-core concurrency — tail latency and throughput (PR 8).

Two figures are produced:

* **Tail latency (gated)** — N async clients submit waves of mixed
  identical/distinct plans to one :class:`EnvelopeService`; every request's
  submit→result latency is recorded and the p50/p95 quantiles (in
  milliseconds) are written in the pytest-benchmark JSON schema —
  ``{"benchmarks": [{"name": ..., "stats": {"median": ...}}]}`` — to the
  path named by ``REPRO_BENCH_SERVICE_JSON`` (default
  ``bench_service_latency.json``), so ``compare_benchmarks.py --unit ms``
  gates serving-latency regressions exactly like timing and allocation
  regressions.
* **Throughput (pytest-benchmark)** — wall time of one full wave (submit
  all, drain all) through the service, the end-to-end number the latency
  quantiles decompose.

The waves deliberately mix coalescible requests (shared ``request_key``)
with unique ones, so the figures cover the coalescing fan-out path, not
just the queue.
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import Simulator
from repro.engine import SimulationPlan
from repro.service import EnvelopeService

N_CLIENTS = 16
REQUESTS_PER_CLIENT = 4
UNIQUE_COMBOS = 8
N_SAMPLES = 256
LATENCY_WAVES = 5
DISPATCH_SLOTS = 4

BASE = np.array(
    [
        [1.0, 0.5 + 0.2j, 0.1],
        [0.5 - 0.2j, 2.0, 0.3j],
        [0.1, -0.3j, 1.5],
    ],
    dtype=complex,
)


@pytest.fixture(scope="module")
def latency_records():
    """Collect latency quantiles; spill them as benchmark-schema JSON."""
    records = {}
    yield records
    target = os.environ.get("REPRO_BENCH_SERVICE_JSON", "").strip()
    if not target:
        target = "bench_service_latency.json"
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"median": float(value)}}
            for name, value in sorted(records.items())
        ]
    }
    Path(target).write_text(json.dumps(payload, indent=2))


def _combo_plan(combo_index, wave=0):
    scale = 1.0 + 0.25 * (combo_index % UNIQUE_COMBOS)
    plan = SimulationPlan()
    plan.add(scale * BASE, seed=1000 + wave * UNIQUE_COMBOS + combo_index)
    return plan


async def _run_wave(service, wave):
    """One wave: every client submits, then drains; returns latencies (s)."""
    latencies = []

    async def client(client_index):
        submitted = []
        for j in range(REQUESTS_PER_CLIENT):
            combo = (client_index * REQUESTS_PER_CLIENT + j) % UNIQUE_COMBOS
            started = time.perf_counter()
            request_id = service.submit(
                _combo_plan(combo, wave),
                N_SAMPLES,
                client_id=f"client-{client_index:02d}",
            )
            submitted.append((request_id, started))
        for request_id, started in submitted:
            await service.result(request_id)
            latencies.append(time.perf_counter() - started)

    await asyncio.gather(*(client(i) for i in range(N_CLIENTS)))
    return latencies


def _serve_waves(n_waves):
    """Run ``n_waves`` client waves against a fresh service; all latencies."""

    async def scenario():
        sim = Simulator(max_workers=DISPATCH_SLOTS)
        collected = []
        async with EnvelopeService(
            sim,
            max_queue=N_CLIENTS * REQUESTS_PER_CLIENT,
            dispatch_slots=DISPATCH_SLOTS,
        ) as service:
            for wave in range(n_waves):
                collected.extend(await _run_wave(service, wave))
            expected = n_waves * N_CLIENTS * REQUESTS_PER_CLIENT
            assert service.metrics()["requests_completed"] == expected
        sim.close()
        return collected

    return asyncio.run(scenario())


def test_service_latency_quantiles(latency_records):
    """Record p50/p95 submit→result latency under 16-client load (gated)."""
    latencies = _serve_waves(LATENCY_WAVES)
    assert len(latencies) == LATENCY_WAVES * N_CLIENTS * REQUESTS_PER_CLIENT
    p50, p95 = np.percentile(latencies, [50, 95])
    latency_records["service_latency_p50_ms"] = p50 * 1e3
    latency_records["service_latency_p95_ms"] = p95 * 1e3


def test_bench_service_wave_throughput(benchmark):
    """Time: one full 64-request wave (submit all, drain all) end-to-end."""

    def one_round():
        return _serve_waves(1)

    latencies = benchmark(one_round)
    assert len(latencies) == N_CLIENTS * REQUESTS_PER_CLIENT
