"""Unit tests of the serving core (:mod:`repro.service.core`).

The fault-injection half uses the deterministic ``flaky_eigh`` /
``flaky_plan_cache`` harness from ``tests/conftest.py`` to prove the
serving core's robustness claim: a mid-compile fault — ``eigh`` blowing
up, a plan-cache store failing a disk probe — fails only the affected
request; the worker loops survive and keep serving.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import Simulator
from repro.engine import SimulationPlan
from repro.engine.cache import DecompositionCache
from repro.exceptions import BackpressureError, ServiceError, SpecificationError
from repro.service import EnvelopeService, request_key

from conftest import InjectedFault

BASE = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)


def _plan(seed=7, scale=1.0):
    plan = SimulationPlan()
    plan.add(scale * BASE, seed=seed)
    return plan


def _fresh_sim(**kwargs):
    kwargs.setdefault("cache", DecompositionCache())
    return Simulator(**kwargs)


def _reference(plan, n_samples):
    """Run ``plan`` directly on a fresh session (the bit-identity oracle)."""
    sim = _fresh_sim()
    try:
        return sim.run(plan, n_samples)
    finally:
        sim.close()


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def scenario():
            service = EnvelopeService(_fresh_sim())
            try:
                with pytest.raises(ServiceError, match="not running"):
                    service.submit(_plan(), 16)
            finally:
                await service.stop()
                service.simulator.close()

        asyncio.run(scenario())

    def test_constructor_validation(self):
        sim = _fresh_sim()
        with pytest.raises(SpecificationError, match="max_queue"):
            EnvelopeService(sim, max_queue=0)
        with pytest.raises(SpecificationError, match="dispatch_slots"):
            EnvelopeService(sim, dispatch_slots=0)
        sim.close()

    def test_stop_cancels_unfinished_requests(self):
        async def scenario():
            sim = _fresh_sim(max_workers=1)
            service = EnvelopeService(sim, dispatch_slots=1)
            await service.start()
            # Submit without awaiting, then stop immediately: the request
            # must resolve (as cancelled), never hang.
            request_id = service.submit(_plan(), 16)
            await service.stop()
            with pytest.raises(ServiceError, match="cancelled"):
                await service.result(request_id)
            metrics = service.metrics()
            assert metrics["requests_cancelled"] >= 1
            sim.close()

        asyncio.run(scenario())

    def test_context_manager_round_trip(self):
        async def scenario():
            sim = _fresh_sim(max_workers=2)
            async with EnvelopeService(sim, dispatch_slots=2) as service:
                request_id = service.submit(_plan(seed=3), 32)
                result = await service.result(request_id)
            reference = _reference(_plan(seed=3), 32)
            assert np.array_equal(
                result.blocks[0].samples, reference.blocks[0].samples
            )
            sim.close()

        asyncio.run(scenario())


class TestStatusAndResults:
    def test_status_lifecycle_and_unknown_ids(self):
        async def scenario():
            sim = _fresh_sim(max_workers=2)
            async with EnvelopeService(sim, dispatch_slots=2) as service:
                assert service.status("req-999999") is None
                with pytest.raises(ServiceError, match="unknown request id"):
                    await service.result("req-999999")
                request_id = service.submit(_plan(), 16, client_id="alice")
                status = service.status(request_id)
                assert status["status"] in ("queued", "running")
                assert status["client_id"] == "alice"
                assert status["coalesced"] is False
                await service.result(request_id)
                assert service.status(request_id)["status"] == "done"
            sim.close()

        asyncio.run(scenario())

    def test_result_waiter_cancellation_leaves_request_alive(self):
        """Cancelling a result() awaiter must not cancel the request."""

        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                request_id = service.submit(_plan(), 16)
                waiter = asyncio.ensure_future(service.result(request_id))
                await asyncio.sleep(0)
                waiter.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                # The request itself still completes normally.
                result = await service.result(request_id)
                assert result.n_entries == 1
            sim.close()

        asyncio.run(scenario())


class TestCoalescing:
    def test_request_key_folds_seeds_labels_and_samples(self):
        assert request_key(_plan(seed=1), 64) == request_key(_plan(seed=1), 64)
        assert request_key(_plan(seed=1), 64) != request_key(_plan(seed=2), 64)
        assert request_key(_plan(seed=1), 64) != request_key(_plan(seed=1), 65)
        labelled = SimulationPlan()
        labelled.add(BASE, seed=1, label="a")
        assert request_key(_plan(seed=1), 64) != request_key(labelled, 64)

    def test_unseeded_entries_never_coalesce(self):
        unseeded = SimulationPlan()
        unseeded.add(BASE, seed=None)
        assert request_key(unseeded, 64) is None

        async def scenario():
            sim = _fresh_sim(max_workers=2)
            async with EnvelopeService(sim, dispatch_slots=2) as service:
                plan_a = SimulationPlan()
                plan_a.add(BASE, seed=None)
                plan_b = SimulationPlan()
                plan_b.add(BASE, seed=None)
                id_a = service.submit(plan_a, 32)
                id_b = service.submit(plan_b, 32)
                result_a = await service.result(id_a)
                result_b = await service.result(id_b)
                # Unseeded entries defer to session defaults the service
                # cannot inspect, so each request runs as its own flight
                # (the results still agree here only because the package
                # default seed makes "no seed" reproducible).
                assert service.metrics()["flights_started"] == 2
                assert service.metrics()["requests_coalesced"] == 0
                assert result_a is not result_b
            sim.close()

        asyncio.run(scenario())

    def test_identical_requests_share_one_flight(self):
        async def scenario():
            sim = _fresh_sim(max_workers=2)
            async with EnvelopeService(sim, dispatch_slots=2) as service:
                ids = [
                    service.submit(_plan(seed=5), 64, client_id=f"c{i}")
                    for i in range(6)
                ]
                results = [await service.result(i) for i in ids]
                assert all(r is results[0] for r in results)
                metrics = service.metrics()
                assert metrics["flights_started"] == 1
                assert metrics["requests_coalesced"] == 5
                assert metrics["requests_completed"] == 6
            sim.close()

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_rejects_synchronously(self):
        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, max_queue=2, dispatch_slots=1) as service:
                # No await between submits: the workers cannot drain, so the
                # queue bound is exact and the rejection synchronous.
                service.submit(_plan(seed=1), 16)
                service.submit(_plan(seed=2), 16)
                with pytest.raises(BackpressureError) as excinfo:
                    service.submit(_plan(seed=3), 16)
                assert excinfo.value.retry_after > 0
                metrics = service.metrics()
                assert metrics["requests_rejected"] == 1
                assert metrics["queued_flights"] == 2
                # A coalescing submit attaches without a queue slot, so it
                # succeeds even against a full queue.
                rid = service.submit(_plan(seed=1), 16, client_id="other")
                assert (await service.result(rid)).n_entries == 1
            sim.close()

        asyncio.run(scenario())


class TestCancellation:
    def test_cancel_queued_request_releases_slot(self):
        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, max_queue=1, dispatch_slots=1) as service:
                request_id = service.submit(_plan(seed=1), 16)
                assert service.queue_depth == 1
                assert service.cancel(request_id) is True
                assert service.queue_depth == 0
                assert service.cancel(request_id) is False  # idempotent
                # The released slot is immediately reusable.
                replacement = service.submit(_plan(seed=2), 16)
                assert (await service.result(replacement)).n_entries == 1
                with pytest.raises(ServiceError, match="cancelled"):
                    await service.result(request_id)
            sim.close()

        asyncio.run(scenario())

    def test_cancel_one_coalesced_waiter_keeps_twin_alive(self):
        async def scenario():
            sim = _fresh_sim(max_workers=2)
            async with EnvelopeService(sim, dispatch_slots=2) as service:
                id_a = service.submit(_plan(seed=5), 64, client_id="a")
                id_b = service.submit(_plan(seed=5), 64, client_id="b")
                assert service.cancel(id_a) is True
                result = await service.result(id_b)
                reference = _reference(_plan(seed=5), 64)
                assert np.array_equal(
                    result.blocks[0].samples, reference.blocks[0].samples
                )
            sim.close()

        asyncio.run(scenario())


class TestFaultInjection:
    def test_backend_fault_fails_request_not_service(self, flaky_eigh):
        """A mid-compile eigh fault resolves one request; the loop survives."""
        flaky_eigh(fail_at=1)

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                doomed = service.submit(_plan(seed=1), 16)
                with pytest.raises(InjectedFault, match="injected backend fault"):
                    await service.result(doomed)
                assert service.status(doomed)["status"] == "failed"
                assert "InjectedFault" in service.status(doomed)["error"]
                # Same service, next request: served by the same workers.
                survivor = service.submit(_plan(seed=2), 16)
                result = await service.result(survivor)
                assert result.n_entries == 1
                metrics = service.metrics()
                assert metrics["flights_failed"] == 1
                assert metrics["flights_completed"] == 1
                assert metrics["requests_failed"] == 1
                assert metrics["requests_completed"] == 1
            sim.close()

        asyncio.run(scenario())

    def test_backend_fault_fans_out_to_every_coalesced_waiter(self, flaky_eigh):
        flaky_eigh(fail_at=1)

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                ids = [
                    service.submit(_plan(seed=1), 16, client_id=f"c{i}")
                    for i in range(3)
                ]
                for request_id in ids:
                    with pytest.raises(InjectedFault):
                        await service.result(request_id)
                assert service.metrics()["flights_failed"] == 1
                assert service.metrics()["requests_failed"] == 3
            sim.close()

        asyncio.run(scenario())

    def test_store_fault_fails_request_not_service(self, flaky_plan_cache):
        """A plan-cache disk fault is the request's problem, not the loop's."""
        from repro.engine import SimulationEngine

        async def scenario():
            engine = SimulationEngine(
                cache=DecompositionCache(), plan_cache=flaky_plan_cache(fail_at=1)
            )
            sim = _fresh_sim(max_workers=1)
            sim._engine = engine  # swap in the engine with the flaky plan tier
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                doomed = service.submit(_plan(seed=1), 16)
                with pytest.raises(InjectedFault, match="injected store fault"):
                    await service.result(doomed)
                survivor = service.submit(_plan(seed=2), 16)
                result = await service.result(survivor)
                reference = _reference(_plan(seed=2), 16)
                assert np.array_equal(
                    result.blocks[0].samples, reference.blocks[0].samples
                )
            sim.close()

        asyncio.run(scenario())


class TestFairness:
    def test_round_robin_interleaves_clients(self):
        """A chatty client's backlog must not starve a late-arriving one."""
        from collections import deque

        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, max_queue=16, dispatch_slots=1) as service:
                # All submits in one synchronous block: the worker cannot run
                # until the next await, so the queues are exactly as built.
                chatty = [
                    service.submit(_plan(seed=10 + i), 16, client_id="chatty")
                    for i in range(4)
                ]
                quiet = service.submit(_plan(seed=99), 16, client_id="quiet")
                assert set(service._client_queues) == {"chatty", "quiet"}
                # Drain the scheduler synchronously to observe dispatch order
                # (a single worker would execute flights in exactly this
                # sequence), then put the flights back untouched.
                drained = []
                while True:
                    flight = service._next_flight()
                    if flight is None:
                        break
                    drained.append(flight)
                dispatch = [flight.client_id for flight in drained]
                # Round-robin: after chatty's head-of-line flight, the quiet
                # client is served before chatty's 3-deep backlog.
                assert dispatch == ["chatty", "quiet", "chatty", "chatty", "chatty"]
                for flight in drained:
                    queue = service._client_queues.setdefault(
                        flight.client_id, deque()
                    )
                    queue.append(flight)
                    service._queued_flights += 1
                service._wakeup.set()
                for request_id in chatty + [quiet]:
                    await service.result(request_id)
            sim.close()

        asyncio.run(scenario())


def _wire_blocks(result):
    """``result`` through the NDJSON wire format and back."""
    from repro.service import result_from_lines, result_to_lines

    return result_from_lines(iter(list(result_to_lines(result))))["blocks"]


class _ExecuteFault:
    """A coloring multiply that fails once when armed."""

    def __init__(self, matmul_into) -> None:
        self._matmul_into = matmul_into
        self.armed = False

    def __call__(self, a, b, out):
        if self.armed:
            self.armed = False
            raise InjectedFault("injected execute fault")
        return self._matmul_into(a, b, out)


@pytest.fixture()
def execute_fault(monkeypatch):
    """An :class:`_ExecuteFault` patched over the executor's coloring multiply."""
    from repro.engine import execute

    fault = _ExecuteFault(execute._matmul_into)
    monkeypatch.setattr(execute, "_matmul_into", fault)
    return fault


class TestPlacement:
    """Warm small flights run on the event loop; everything else is pooled."""

    def test_cold_pooled_warm_inline_large_pooled_all_bit_identical(self):
        from repro.service.core import INLINE_WORK_LIMIT

        large_n = INLINE_WORK_LIMIT // BASE.shape[0] ** 2 + 1

        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                seen = []
                for seed, n_samples in ((1, 64), (2, 64), (3, large_n)):
                    request_id = service.submit(_plan(seed=seed), n_samples)
                    result = await service.result(request_id)
                    metrics = service.metrics()
                    seen.append(
                        (seed, n_samples, result, metrics["flights_inline"],
                         metrics["flights_pooled"])
                    )
                final = service.metrics()
            sim.close()
            return seen, final

        seen, final = asyncio.run(scenario())
        # Cold first request pooled, warm repeat inline, warm but large pooled.
        assert [(inline, pooled) for *_, inline, pooled in seen] == [
            (0, 1),
            (1, 1),
            (1, 2),
        ]
        assert final["flights_started"] == 3
        assert final["flights_started"] == final["flights_inline"] + final["flights_pooled"]
        for seed, n_samples, result, _inline, _pooled in seen:
            reference = _reference(_plan(seed=seed), n_samples)
            for got, want in zip(_wire_blocks(result), reference.blocks):
                assert got.tobytes() == want.samples.tobytes()

    def test_residency_probe_moves_no_counter(self):
        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                await service.result(service.submit(_plan(seed=1), 32))
                warm = service.submit(_plan(seed=2), 32)
                flight = service._requests[warm].flight
                before = sim.cache.stats
                assert service._runs_inline(flight) is True
                assert service._runs_inline(flight) is True
                assert sim.cache.stats == before
                result = await service.result(warm)
            sim.close()
            return result

        result = asyncio.run(scenario())
        # The inline compile counts its own lookup exactly as a pooled one.
        report = result.compile_report
        assert (report.cache_hits, report.cache_misses) == (1, 0)

    def test_inline_failure_resolves_only_its_waiters(self, execute_fault):
        async def scenario():
            sim = Simulator(cache=DecompositionCache(), max_workers=1)
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                await service.result(service.submit(_plan(seed=1), 32))
                execute_fault.armed = True
                doomed = [
                    service.submit(_plan(seed=2), 32, client_id=f"c{i}") for i in range(2)
                ]
                survivor = service.submit(_plan(seed=3), 32, client_id="other")
                for request_id in doomed:
                    with pytest.raises(InjectedFault, match="injected execute fault"):
                        await service.result(request_id)
                result = await service.result(survivor)
                after = service.submit(_plan(seed=4), 32)
                later = await service.result(after)
                metrics = service.metrics()
            sim.close()
            return result, later, metrics

        result, later, metrics = asyncio.run(scenario())
        assert metrics["flights_inline"] == 3
        assert metrics["flights_failed"] == 1
        assert metrics["requests_failed"] == 2
        assert metrics["requests_completed"] == 3
        for seed, got in ((3, result), (4, later)):
            reference = _reference(_plan(seed=seed), 32)
            assert got.blocks[0].samples.tobytes() == reference.blocks[0].samples.tobytes()


class TestAdmission:
    def test_result_record_at_the_limit_is_accepted_one_sample_over_refused(
        self, monkeypatch
    ):
        from repro.exceptions import RequestTooLargeError
        from repro.service import core

        n_branches = BASE.shape[0]
        monkeypatch.setattr(core, "MAX_RESULT_BYTES", n_branches * 100 * 16)
        assert core.plan_cost(_plan(), 100)[1] == core.MAX_RESULT_BYTES

        async def scenario():
            sim = _fresh_sim(max_workers=1)
            async with EnvelopeService(sim, dispatch_slots=1) as service:
                accepted = service.submit(_plan(seed=1), 100)
                with pytest.raises(RequestTooLargeError, match="bytes"):
                    service.submit(_plan(seed=1), 101)
                assert service.queue_depth == 1
                result = await service.result(accepted)
                metrics = service.metrics()
            sim.close()
            return result, metrics

        result, metrics = asyncio.run(scenario())
        assert result.blocks[0].samples.shape == (n_branches, 100)
        assert metrics["requests_too_large"] == 1
        assert metrics["requests_submitted"] == 1
        assert metrics["flights_started"] == 1

    def test_plan_cost_pads_doppler_entries_to_whole_idft_blocks(self):
        from repro.engine import DopplerSpec
        from repro.service.core import plan_cost

        plan = SimulationPlan()
        plan.add(BASE, seed=1)
        plan.add(np.eye(3, dtype=complex), seed=2, doppler=DopplerSpec(0.05, n_points=64))
        # Snapshot: 2² · 100; Doppler: 3² · 128 (two 64-point blocks).
        assert plan_cost(plan, 100) == (4 * 100 + 9 * 128, (2 + 3) * 100 * 16)
