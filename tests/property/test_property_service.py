"""Concurrency properties of the serving core (the PR's acceptance test).

32 async clients hammer one :class:`EnvelopeService` with a mix of identical
and distinct plans; the suite then checks the three serving invariants
end-to-end:

* **bit-identity** — every response equals a direct ``Simulator.run`` of the
  same plan on a fresh session, coalesced or not;
* **single compile per unique plan hash** — proven two ways: a counting
  ``eigh`` observes exactly one batch per unique covariance, and the
  ``CompileReport`` counters on the fanned-out results show exactly one
  fresh compile per unique plan hash;
* **conservation** — queue slots and pool slots are conserved through
  completion, rejection, and cancellation:
  ``requests_submitted == completed + failed + cancelled`` once drained,
  with no queued flight or pending pool submission left behind.

Determinism note: each client coroutine performs all of its submissions in
one synchronous block before its first ``await``.  The event loop is FIFO,
so every client's submissions land before any worker task gets to run —
coalescing and queue-depth counters are exact, not statistical.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import Simulator
from repro.engine import SimulationPlan
from repro.engine.cache import DecompositionCache
from repro.exceptions import BackpressureError
from repro.service import EnvelopeService

BASE = np.array(
    [
        [1.0, 0.5 + 0.2j, 0.1],
        [0.5 - 0.2j, 2.0, 0.3j],
        [0.1, -0.3j, 1.5],
    ],
    dtype=complex,
)

#: Unique request combos: 4 covariance scales x 4 seeds = 16 unique keys.
SCALES = (1.0, 2.0, 0.5, 3.0)
SEEDS = (11, 22, 33, 44)
N_SAMPLES = 64
N_CLIENTS = 32
REQUESTS_PER_CLIENT = 3


def _combo_plan(combo_index):
    scale = SCALES[combo_index % len(SCALES)]
    seed = SEEDS[combo_index // len(SCALES)]
    plan = SimulationPlan()
    plan.add(scale * BASE, seed=seed)
    return plan


def _all_combos():
    return list(range(len(SCALES) * len(SEEDS)))


def _references():
    """Direct ``Simulator.run`` results, one fresh session per combo."""
    references = {}
    for combo in _all_combos():
        sim = Simulator(cache=DecompositionCache())
        try:
            references[combo] = sim.run(_combo_plan(combo), N_SAMPLES)
        finally:
            sim.close()
    return references


class TestThirtyTwoClients:
    def test_coalesced_fanout_is_bit_identical_and_compiles_once(
        self, tmp_path, flaky_eigh
    ):
        """The acceptance criterion: 32 clients, 16 unique plans, 1 compile each."""
        counter = flaky_eigh(fail_at=0)  # fail_at=0 never fires: pure counter
        unique = len(_all_combos())
        total = N_CLIENTS * REQUESTS_PER_CLIENT

        async def scenario():
            # cache_dir attaches the compiled-plan tier (memory + disk), so
            # request-level coalescing sits above compile-level singleflight
            # exactly as in production `serve` runs.
            sim = Simulator(cache_dir=str(tmp_path), max_workers=4)
            async with EnvelopeService(
                sim, max_queue=unique, dispatch_slots=4
            ) as service:
                outcomes = []

                async def client(client_index):
                    # All submits before the first await: see module docstring.
                    submitted = []
                    for j in range(REQUESTS_PER_CLIENT):
                        combo = (client_index * REQUESTS_PER_CLIENT + j) % unique
                        request_id = service.submit(
                            _combo_plan(combo),
                            N_SAMPLES,
                            client_id=f"client-{client_index:02d}",
                        )
                        submitted.append((combo, request_id))
                    for combo, request_id in submitted:
                        result = await service.result(request_id)
                        outcomes.append((combo, request_id, result))

                await asyncio.gather(
                    *(client(i) for i in range(N_CLIENTS))
                )
                metrics = service.metrics()
            sim.close()
            return outcomes, metrics

        outcomes, metrics = asyncio.run(scenario())
        service_eigh_calls = counter.eigh_calls
        references = _references()

        assert len(outcomes) == total
        # Bit-identity: every response equals the direct single-client run.
        for combo, _request_id, result in outcomes:
            reference = references[combo]
            assert len(result.blocks) == len(reference.blocks)
            for got, want in zip(result.blocks, reference.blocks):
                assert np.array_equal(got.samples, want.samples)

        # Coalescing: 96 requests collapse onto exactly 16 flights.
        assert metrics["flights_started"] == unique
        assert metrics["flights_completed"] == unique
        assert metrics["requests_submitted"] == total
        assert metrics["requests_coalesced"] == total - unique
        assert metrics["requests_completed"] == total

        # One compile per unique covariance: the counting eigh saw
        # exactly the serial baseline's traffic per distinct matrix
        # (seeds share the compiled plan), with zero duplicated compiles.
        probe = flaky_eigh(fail_at=0)
        probe_sim = Simulator(cache=DecompositionCache())
        try:
            probe_sim.run(_combo_plan(0), N_SAMPLES)
        finally:
            probe_sim.close()
        eigh_calls_per_compile = probe.eigh_calls
        assert eigh_calls_per_compile > 0
        assert service_eigh_calls == eigh_calls_per_compile * len(SCALES)

        # ...and the CompileReport counters agree: per unique plan hash
        # (= per covariance scale) exactly one flight compiled fresh; every
        # other flight hit the plan cache (memory tier or in-flight join).
        by_result = {}
        for combo, _request_id, result in outcomes:
            by_result.setdefault(id(result), (combo, result))
        assert len(by_result) == unique  # one shared result object per flight
        fresh = [
            result
            for _combo, result in by_result.values()
            if result.compile_report.plan_cache_hits == 0
        ]
        cached = [
            result
            for _combo, result in by_result.values()
            if result.compile_report.plan_cache_hits == 1
        ]
        assert len(fresh) == len(SCALES)
        assert len(fresh) + len(cached) == unique

        # Conservation, fully drained.
        assert (
            metrics["requests_completed"]
            + metrics["requests_failed"]
            + metrics["requests_cancelled"]
            == metrics["requests_submitted"]
        )
        assert metrics["queued_flights"] == 0
        assert metrics["pending_submissions"] == 0

    def test_full_queue_rejects_instead_of_blocking(self):
        """Overflow submissions fail synchronously; accepted ones complete."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache(), max_workers=2)
            async with EnvelopeService(
                sim, max_queue=4, dispatch_slots=2
            ) as service:
                accepted, rejected = [], 0
                # One synchronous block: the queue cannot drain mid-loop, so
                # exactly max_queue submissions are accepted.
                for combo in range(8):
                    try:
                        accepted.append(
                            service.submit(_combo_plan(combo), N_SAMPLES)
                        )
                    except BackpressureError as exc:
                        rejected += 1
                        assert exc.retry_after > 0
                assert len(accepted) == 4
                assert rejected == 4
                results = [await service.result(r) for r in accepted]
                assert all(r.n_entries == 1 for r in results)
                metrics = service.metrics()
            sim.close()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics["requests_rejected"] == 4
        assert metrics["requests_completed"] == 4
        assert (
            metrics["requests_completed"]
            + metrics["requests_failed"]
            + metrics["requests_cancelled"]
            == metrics["requests_submitted"]
        )
        assert metrics["queued_flights"] == 0

    def test_cancellation_conserves_queue_slots(self):
        """Cancelling queued work releases its slot; counters stay conserved."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache(), max_workers=1)
            async with EnvelopeService(
                sim, max_queue=4, dispatch_slots=1
            ) as service:
                ids = [
                    service.submit(_combo_plan(combo), N_SAMPLES)
                    for combo in range(4)
                ]
                # Cancel half the queue synchronously (before dispatch).
                for request_id in ids[2:]:
                    assert service.cancel(request_id) is True
                # The released slots are immediately reusable.
                replacement = service.submit(_combo_plan(7), N_SAMPLES)
                for request_id in ids[:2] + [replacement]:
                    result = await service.result(request_id)
                    assert result.n_entries == 1
                metrics = service.metrics()
            sim.close()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics["requests_cancelled"] == 2
        assert metrics["requests_completed"] == 3
        assert (
            metrics["requests_completed"]
            + metrics["requests_failed"]
            + metrics["requests_cancelled"]
            == metrics["requests_submitted"]
        )
        assert metrics["queued_flights"] == 0
        assert metrics["pending_submissions"] == 0


class TestCoalescedEqualsUncoalesced:
    def test_coalesce_flag_off_still_bit_identical(self):
        """The documented invariant, falsifiably: same bits either way."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache(), max_workers=2)
            async with EnvelopeService(sim, dispatch_slots=2) as service:
                plan = _combo_plan(5)
                coalesced_ids = [
                    service.submit(plan, N_SAMPLES, client_id=f"c{i}")
                    for i in range(3)
                ]
                solo_id = service.submit(
                    _combo_plan(5), N_SAMPLES, coalesce=False
                )
                coalesced = [await service.result(r) for r in coalesced_ids]
                solo = await service.result(solo_id)
                metrics = service.metrics()
            sim.close()
            return coalesced, solo, metrics

        coalesced, solo, metrics = asyncio.run(scenario())
        assert metrics["requests_coalesced"] == 2
        assert metrics["flights_started"] == 2  # coalesced trio + solo
        assert all(r is coalesced[0] for r in coalesced)
        assert solo is not coalesced[0]
        for got, want in zip(solo.blocks, coalesced[0].blocks):
            assert np.array_equal(got.samples, want.samples)


@pytest.mark.slow
class TestSustainedLoad:
    def test_waves_of_clients_never_leak_state(self):
        """Several submit/drain waves leave no residue in the scheduler."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache(), max_workers=4)
            async with EnvelopeService(
                sim, max_queue=16, dispatch_slots=4
            ) as service:
                for wave in range(5):
                    ids = [
                        service.submit(
                            _combo_plan(combo),
                            N_SAMPLES,
                            client_id=f"wave-{wave}-client-{combo % 4}",
                        )
                        for combo in range(8)
                    ]
                    for request_id in ids:
                        await service.result(request_id)
                    assert service.queue_depth == 0
                metrics = service.metrics()
            sim.close()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics["requests_submitted"] == 40
        assert metrics["requests_completed"] == 40
        assert metrics["pending_submissions"] == 0
