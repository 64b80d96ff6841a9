"""Streaming (bounded-memory) records and Monte-Carlo replica ensembles.

Long channel records and Monte-Carlo confidence studies are where the HPC
aspects of the library matter.  Both are plans run by one
:class:`repro.Simulator`:

1. a long Doppler-shaped record is a one-entry plan streamed block by block
   with :meth:`Simulator.stream`, accumulating running statistics while only
   one block is ever held in memory, and
2. a replica ensemble is a plan of independent entries sharing one
   covariance (per-replica seeds derived from one root seed), run as a
   batch with :meth:`Simulator.run` to put a confidence interval on the
   achieved covariance error.  To spread a large ensemble across worker
   processes, run the same plan with :mod:`repro.shard`.

Run with::

    python examples/streaming_and_parallel.py
"""

from __future__ import annotations

import numpy as np

from repro import DopplerSpec, SimulationPlan, Simulator, covariance_match_report
from repro.experiments import paper_values as pv


def streaming_demo(sim: Simulator) -> None:
    print("=" * 72)
    print("1. Streaming a long Doppler-shaped record with bounded memory")
    print("=" * 72)

    spec = pv.paper_ofdm_scenario().covariance_spec(np.ones(3))
    plan = SimulationPlan()
    plan.add(spec, seed=5, doppler=DopplerSpec(pv.NORMALIZED_DOPPLER, n_points=4096))
    n_chunks = 16  # 16 x 4096 = 65536 samples per branch, never held at once

    n = spec.n_branches
    covariance = np.zeros((n, n), dtype=complex)
    power = np.zeros(n)
    mean = np.zeros(n)
    total = 0
    for batch in sim.stream(plan, block_size=4096, n_blocks=n_chunks):
        samples = batch.blocks[0].samples
        covariance += samples @ samples.conj().T
        envelopes = np.abs(samples)
        power += np.sum(envelopes**2, axis=1)
        mean += np.sum(envelopes, axis=1)
        total += samples.shape[1]

    print(f"accumulated {total} samples per branch over {n_chunks} chunks")
    print(f"running branch powers      : {np.round(power / total, 3)}")
    print(f"running envelope means     : {np.round(mean / total, 3)}")
    print(
        "max covariance deviation   : "
        f"{np.max(np.abs(covariance / total - spec.matrix)):.3f}"
    )


def ensemble_demo(sim: Simulator) -> None:
    print()
    print("=" * 72)
    print("2. Monte-Carlo ensemble of independent replicas")
    print("=" * 72)

    covariance = np.asarray(pv.EQ22_COVARIANCE, dtype=complex)
    n_replicas, samples_per_replica = 8, 50_000
    plan = SimulationPlan.from_specs([covariance] * n_replicas, seed=123)
    result = sim.run(plan, samples_per_replica)
    reports = [covariance_match_report(block.samples, covariance) for block in result.blocks]
    errors = np.array([report.relative_error for report in reports])
    pooled = sum(report.empirical * report.n_samples for report in reports) / float(
        n_replicas * samples_per_replica
    )

    print(f"replicas                   : {len(reports)}")
    print(f"samples per replica        : {samples_per_replica}")
    print(f"mean relative covariance error : {np.mean(errors):.4f}")
    print(f"worst replica error            : {np.max(errors):.4f}")
    print(
        "pooled covariance deviation    : "
        f"{np.max(np.abs(pooled - pv.EQ22_COVARIANCE)):.4f}"
    )


if __name__ == "__main__":
    with Simulator() as session:
        streaming_demo(session)
        ensemble_demo(session)
