"""The asyncio serving core: bounded queue, fairness, coalescing, cancellation.

:class:`EnvelopeService` turns a :class:`repro.api.Simulator` session into a
long-running multi-client server.  Scheduling state lives on the event-loop
thread only (no locks here).  The numeric work runs in-process: a small
warm flight runs on the event loop itself, every other flight on the
simulator's thread pool, one ``Simulator.submit`` per dispatch slot (see
:meth:`EnvelopeService._runs_inline`).  Five mechanisms shape the traffic:

* **cost-based admission** — a plan whose result record would exceed
  :data:`MAX_RESULT_BYTES` is refused with
  :class:`repro.exceptions.RequestTooLargeError` before anything is queued
  or allocated;
* **bounded submission queue** — at most ``max_queue`` *flights* (deduplicated
  compile/execute units) may be queued; a submit against a full queue raises
  :class:`repro.exceptions.BackpressureError` carrying a ``retry_after``
  estimate instead of blocking the event loop;
* **per-client fairness** — queued flights are kept per client and dispatched
  round-robin across clients, so one chatty client cannot starve the rest;
* **in-flight coalescing** — concurrent requests whose
  :func:`request_key` matches (same compiled-plan content hash *and* same
  seeds, labels, and sample count — the inputs that determine the result
  bits) attach to one flight and the single :class:`BatchResult` fans out to
  every waiter, bit-identical to each client running alone;
* **cooperative cancellation** — cancelling a request detaches its waiter;
  the last waiter of a queued flight releases the queue slot, the last
  waiter of a running flight cancels the underlying
  :meth:`repro.api.Simulator.submit` future (which releases a not-yet-started
  pool slot).

Below the request-level coalescing here, the compiled-plan cache adds
thread-level compile singleflight (see
:meth:`repro.engine.plancache.CompiledPlanCache.join_inflight`) for requests
that share a plan structure but differ in seeds.
"""

# reprolint: hot-module — the serving core is pure dispatch bookkeeping; it
# must never allocate arrays (results stream through by reference from the
# simulator's thread pool), and the hot-path-allocation rule enforces that.

from __future__ import annotations

import asyncio
import hashlib
import itertools
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..api import Simulator
from ..engine import BatchResult, SimulationPlan
from ..engine.plancache import compiled_plan_cache_key
from ..exceptions import (
    BackpressureError,
    RequestTooLargeError,
    ServiceError,
    SpecificationError,
)
from .metrics import ServiceMetrics

__all__ = [
    "EnvelopeService",
    "INLINE_WORK_LIMIT",
    "MAX_RESULT_BYTES",
    "plan_cost",
    "request_key",
]

#: Request / flight lifecycle states (strings so status payloads are JSON).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Completed/failed/cancelled requests kept for status polling before
#: eviction.
HISTORY_LIMIT = 1024

#: Largest result record (complex128 samples, Σ N·n·16 bytes) a request
#: may ask for; larger plans are refused at submit (HTTP 413).
MAX_RESULT_BYTES = 1 << 30

#: Largest execute work (Σ N²·L, see :func:`plan_cost`) of a flight that
#: may run on the event loop once its decompositions are resident.  At
#: this bound a one-entry flight holds the loop for at most ~6 ms (N = 1,
#: where the white draw, not the multiply, dominates; 2-vCPU KVM guest);
#: at 2^20 it was ~60-100 ms.
INLINE_WORK_LIMIT = 1 << 16


def plan_cost(plan: SimulationPlan, n_samples: int) -> Tuple[int, int]:
    """``(execute work, result bytes)`` of running ``plan`` for ``n_samples``.

    The work is Σ N²·L over entries: the coloring multiply of an N-branch
    entry over L samples, where L is ``n_samples`` for a snapshot entry and
    the padded IDFT length ⌈n/M⌉·M for a Doppler entry.  The result record
    is Σ N·n·16 bytes of complex128 samples.  Pure integer arithmetic: it
    allocates nothing however large ``n_samples`` is.
    """
    work = 0
    n_branches = 0
    for entry in plan:
        n = entry.n_branches
        length = n_samples
        if entry.doppler is not None:
            m = entry.doppler.n_points
            length = -(-n_samples // m) * m
        work += n * n * length
        n_branches += n
    return work, n_branches * n_samples * 16


def request_key(plan: SimulationPlan, n_samples: int) -> Optional[str]:
    """Coalescing key of one request, or ``None`` when coalescing is unsafe.

    Two requests may share one compile/execute only when their *results*
    are guaranteed bit-identical, not merely their compilations: the
    compiled-plan content hash (which deliberately excludes seeds and
    labels) is therefore extended with every entry's seed and label, in
    plan order, plus the sample count.  An entry seeded with anything but
    an integer makes the request unique — a live ``Generator`` is stateful
    (two submissions passing it would *not* be bit-identical run alone),
    and ``None`` defers to session defaults the service cannot inspect —
    so the function returns ``None`` and the service runs the request as
    its own flight.
    """
    seeds = []
    for entry in plan:
        seed = entry.seed
        if seed is None or not isinstance(seed, (int, np.integer)):
            return None
        seeds.append((int(seed), entry.label))
    base = compiled_plan_cache_key(plan)
    hasher = hashlib.sha256(base.encode("ascii"))
    hasher.update(repr((int(n_samples), seeds)).encode("utf8"))
    return hasher.hexdigest()


class _Flight:
    """One coalesced unit of work: a single compile/execute, 1+ waiters."""

    __slots__ = (
        "key",
        "client_id",
        "plan",
        "n_samples",
        "work",
        "waiters",
        "state",
        "task",
        "cancel_requested",
    )

    def __init__(
        self,
        key: Optional[str],
        client_id: str,
        plan: SimulationPlan,
        n_samples: int,
        work: int,
    ) -> None:
        self.key = key
        self.client_id = client_id
        self.plan = plan
        self.n_samples = n_samples
        self.work = work
        self.waiters: List[_Request] = []
        self.state = QUEUED
        self.task: Optional["asyncio.Task[BatchResult]"] = None
        self.cancel_requested = False


class _Request:
    """One client-visible submission: an id, a future, and its flight."""

    __slots__ = (
        "request_id",
        "client_id",
        "flight",
        "future",
        "status",
        "error",
        "coalesced",
    )

    def __init__(
        self,
        request_id: str,
        client_id: str,
        flight: "_Flight",
        future: "asyncio.Future[BatchResult]",
        coalesced: bool = False,
    ) -> None:
        self.request_id = request_id
        self.client_id = client_id
        self.flight = flight
        self.future = future
        self.status = QUEUED
        self.error: Optional[str] = None
        self.coalesced = coalesced


class EnvelopeService:
    """Bounded-queue, fair, coalescing envelope server over one Simulator.

    All public methods must be called from the event-loop thread that ran
    :meth:`start` — the scheduling state is loop-confined by design (the
    numeric work of a cold or large flight runs on the simulator's thread
    pool; see the module docstring for the placement rule and the
    traffic-shaping mechanisms).

    Parameters
    ----------
    simulator:
        The warm session serving every request.  ``None`` builds a private
        ``Simulator(max_workers=dispatch_slots)`` that :meth:`stop` closes.
    max_queue:
        Maximum *queued* flights (running flights do not count — their
        queue slot is released on dispatch).  A submit against a full
        queue raises :class:`~repro.exceptions.BackpressureError`.
    dispatch_slots:
        Concurrent flights in execution: the number of worker loops pulling
        from the queue, each running one flight at a time (a pooled flight
        awaits ``Simulator.submit``).

    The last :data:`HISTORY_LIMIT` finished requests stay pollable.
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        *,
        max_queue: int = 64,
        dispatch_slots: int = 4,
    ) -> None:
        if max_queue < 1:
            raise SpecificationError(f"max_queue must be >= 1, got {max_queue}")
        if dispatch_slots < 1:
            raise SpecificationError(
                f"dispatch_slots must be >= 1, got {dispatch_slots}"
            )
        self._sim = (
            simulator
            if simulator is not None
            else Simulator(max_workers=dispatch_slots)
        )
        self._owns_simulator = simulator is None
        self._max_queue = int(max_queue)
        self._dispatch_slots = int(dispatch_slots)
        self._metrics = ServiceMetrics()
        self._requests: Dict[str, _Request] = {}
        self._done_ids: Deque[str] = deque()
        self._flights: Dict[str, _Flight] = {}
        self._client_queues: "OrderedDict[str, Deque[_Flight]]" = OrderedDict()
        self._queued_flights = 0
        self._workers: List["asyncio.Task[None]"] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._running = False
        self._ids = itertools.count(1)
        # EWMA of observed flight duration, seeding the retry-after estimate.
        self._avg_flight_seconds = 0.1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def simulator(self) -> Simulator:
        """The simulator session serving this service's flights."""
        return self._sim

    @property
    def is_running(self) -> bool:
        """Whether the worker loops are live."""
        return self._running

    @property
    def queue_depth(self) -> int:
        """Flights currently queued (running flights excluded)."""
        return self._queued_flights

    async def start(self) -> None:
        """Spawn the worker loops; idempotent."""
        if self._running:
            return
        self._running = True
        self._wakeup = asyncio.Event()
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"envelope-worker-{i}")
            for i in range(self._dispatch_slots)
        ]

    async def stop(self) -> None:
        """Cancel the workers, fail unresolved requests, release resources.

        Requests still queued or running are resolved as cancelled so no
        awaiter hangs; a privately built simulator is closed.
        """
        if not self._running and not self._workers:
            return
        self._running = False
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for request in list(self._requests.values()):
            if not request.future.done():
                request.status = CANCELLED
                request.future.cancel()
                self._metrics.increment("requests_cancelled")
                self._retire(request)
        self._flights.clear()
        self._client_queues.clear()
        self._queued_flights = 0
        if self._owns_simulator:
            self._sim.close()

    async def __aenter__(self) -> "EnvelopeService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Submission / status / results / cancellation
    # ------------------------------------------------------------------ #
    def submit(
        self,
        plan: SimulationPlan,
        n_samples: int,
        *,
        client_id: str = "anonymous",
        coalesce: bool = True,
    ) -> str:
        """Enqueue one plan; returns the request id.  Never blocks.

        A plan whose result record (see :func:`plan_cost`) exceeds
        :data:`MAX_RESULT_BYTES` raises
        :class:`~repro.exceptions.RequestTooLargeError` first.  Otherwise
        the submission either coalesces onto an in-flight twin (identical
        :func:`request_key`: same plan content, seeds, labels, and sample
        count — the response is the same ``BatchResult`` object, bit-
        identical to running alone), occupies a queue slot on the client's
        queue, or — queue full — raises
        :class:`~repro.exceptions.BackpressureError` with a
        ``retry_after`` hint, synchronously, without ever blocking the
        event loop.
        """
        if not self._running:
            raise ServiceError("service is not running; call start() first")
        if n_samples < 1:
            raise SpecificationError(f"n_samples must be >= 1, got {n_samples}")
        work, result_bytes = plan_cost(plan, n_samples)
        if result_bytes > MAX_RESULT_BYTES:
            self._metrics.increment("requests_too_large")
            raise RequestTooLargeError(
                f"the result record would take {result_bytes} bytes, above the "
                f"{MAX_RESULT_BYTES}-byte limit"
            )
        loop = asyncio.get_running_loop()
        key = None
        if coalesce:
            key = request_key(plan, n_samples)
        flight = self._flights.get(key) if key is not None else None
        request_id = f"req-{next(self._ids):06d}"
        if flight is not None and not flight.cancel_requested:
            request = _Request(
                request_id, client_id, flight, loop.create_future(), coalesced=True
            )
            flight.waiters.append(request)
            request.status = flight.state
            self._metrics.increment("requests_coalesced")
        else:
            if self._queued_flights >= self._max_queue:
                self._metrics.increment("requests_rejected")
                retry_after = self._estimate_retry_after()
                raise BackpressureError(
                    f"submission queue is full ({self._max_queue} flights); "
                    f"retry after ~{retry_after:.2f}s",
                    retry_after=retry_after,
                )
            flight = _Flight(key, client_id, plan, n_samples, work)
            request = _Request(request_id, client_id, flight, loop.create_future())
            flight.waiters.append(request)
            if key is not None:
                self._flights[key] = flight
            queue = self._client_queues.get(client_id)
            if queue is None:
                queue = deque()
                self._client_queues[client_id] = queue
            queue.append(flight)
            self._queued_flights += 1
            if self._wakeup is not None:
                self._wakeup.set()
        self._requests[request_id] = request
        self._metrics.increment("requests_submitted")
        return request_id

    def status(self, request_id: str) -> Optional[Dict[str, Any]]:
        """Status snapshot of one request, or ``None`` for unknown ids."""
        request = self._requests.get(request_id)
        if request is None:
            return None
        return {
            "request_id": request.request_id,
            "client_id": request.client_id,
            "status": request.status,
            "n_entries": request.flight.plan.n_entries,
            "n_samples": request.flight.n_samples,
            "coalesced": request.coalesced,
            "error": request.error,
        }

    async def result(self, request_id: str) -> BatchResult:
        """Await the :class:`BatchResult` of one request.

        Raises the flight's exception for failed requests and
        :class:`~repro.exceptions.ServiceError` for cancelled or unknown
        ones.  Waiting is shielded: cancelling *this* coroutine does not
        cancel the request (use :meth:`cancel` for that).
        """
        request = self._requests.get(request_id)
        if request is None:
            raise ServiceError(f"unknown request id {request_id!r}")
        if request.future.cancelled():
            raise ServiceError(f"request {request_id!r} was cancelled")
        try:
            return await asyncio.shield(request.future)
        except asyncio.CancelledError:
            if request.future.cancelled():
                raise ServiceError(
                    f"request {request_id!r} was cancelled"
                ) from None
            raise  # the *caller* was cancelled; the request lives on

    def cancel(self, request_id: str) -> bool:
        """Cancel one request; ``True`` if this call cancelled it.

        Detaches the request's waiter and conserves every resource: the
        last waiter of a queued flight releases its queue slot; the last
        waiter of a running flight cancels the underlying
        ``Simulator.submit`` future (a not-yet-started pool slot is freed
        without the work ever running).  Other waiters coalesced onto the
        same flight are unaffected.
        """
        request = self._requests.get(request_id)
        if request is None or request.future.done():
            return False
        flight = request.flight
        if request in flight.waiters:
            flight.waiters.remove(request)
        request.status = CANCELLED
        request.future.cancel()
        self._metrics.increment("requests_cancelled")
        self._retire(request)
        if not flight.waiters:
            if flight.state == QUEUED:
                self._unqueue_flight(flight)
            elif flight.state == RUNNING:
                flight.cancel_requested = True
                if flight.key is not None:
                    self._flights.pop(flight.key, None)
                if flight.task is not None:
                    flight.task.cancel()
        return True

    def metrics(self) -> Dict[str, Any]:
        """Counter snapshot plus live gauges (queue depth, pool pressure)."""
        snapshot: Dict[str, Any] = self._metrics.snapshot()
        snapshot["queued_flights"] = self._queued_flights
        snapshot["max_queue"] = self._max_queue
        snapshot["dispatch_slots"] = self._dispatch_slots
        snapshot["pending_submissions"] = self._sim.pending_submissions
        snapshot["avg_flight_seconds"] = self._avg_flight_seconds
        return snapshot

    # ------------------------------------------------------------------ #
    # Scheduling internals (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _next_flight(self) -> Optional[_Flight]:
        """Dequeue the next flight, round-robin across client queues."""
        for client_id in list(self._client_queues):
            queue = self._client_queues[client_id]
            if not queue:
                del self._client_queues[client_id]
                continue
            flight = queue.popleft()
            self._queued_flights -= 1
            if queue:
                # Rotate the served client to the back so its next flight
                # waits behind every other client's head-of-line.
                self._client_queues.move_to_end(client_id)
            else:
                del self._client_queues[client_id]
            return flight
        return None

    async def _worker_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            flight = self._next_flight()
            if flight is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._execute_flight(flight)
            # An inline flight never awaited: let the connection handlers
            # run before this worker takes the next flight.
            await asyncio.sleep(0)

    def _runs_inline(self, flight: _Flight) -> bool:
        """Whether ``flight`` runs on the event loop instead of the pool.

        Only a flight that can neither decompose nor run long qualifies:
        its execute work (:func:`plan_cost`) is at most
        :data:`INLINE_WORK_LIMIT` and every entry's decomposition is
        already resident in the session's decomposition cache.  The probe
        computes the same memoized key compile will look up and tests
        membership without counting a hit or a miss, so cache statistics
        and compile reports read as if the probe never ran.
        """
        if flight.work > INLINE_WORK_LIMIT:
            return False
        cache = self._sim.engine.cache
        return all(entry.cache_key() in cache for entry in flight.plan)

    async def _execute_flight(self, flight: _Flight) -> None:
        """Run one flight and fan its outcome out.

        A warm, small flight (:meth:`_runs_inline`) runs synchronously on
        the event loop: handing it to a pool thread costs more than it
        does.  Every other flight — a cold compile, a large execute —
        awaits ``Simulator.submit`` on the simulator's thread pool, so the
        loop keeps answering while it runs.

        A flight failure (a decomposition fault, a store fault, a malformed
        plan surfacing at compile time) resolves only that flight's waiters —
        the exception is consumed here and the worker loop survives to
        serve the next flight.  Only the worker's own cancellation
        (service stop) propagates.
        """
        flight.state = RUNNING
        for request in flight.waiters:
            request.status = RUNNING
        self._metrics.increment("flights_started")
        started = time.monotonic()
        try:
            if self._runs_inline(flight):
                self._metrics.increment("flights_inline")
                result = self._sim.run(flight.plan, flight.n_samples)
            else:
                self._metrics.increment("flights_pooled")
                task = asyncio.ensure_future(
                    self._sim.submit(flight.plan, flight.n_samples)
                )
                flight.task = task
                result = await task
        except asyncio.CancelledError:
            flight.task = None
            if flight.cancel_requested:
                flight.state = CANCELLED
                self._metrics.increment("flights_cancelled")
                return  # last waiter already detached; the worker survives
            raise  # the worker itself is being cancelled (service stop)
        except Exception as exc:
            flight.task = None
            flight.state = FAILED
            self._metrics.increment("flights_failed")
            self._observe_duration(time.monotonic() - started)
            self._fan_out_error(flight, exc)
            return
        flight.task = None
        flight.state = DONE
        self._metrics.increment("flights_completed")
        self._observe_duration(time.monotonic() - started)
        self._fan_out_result(flight, result)

    def _fan_out_result(self, flight: _Flight, result: BatchResult) -> None:
        if flight.key is not None:
            self._flights.pop(flight.key, None)
        for request in flight.waiters:
            if request.future.done():
                continue
            request.status = DONE
            request.future.set_result(result)
            self._metrics.increment("requests_completed")
            self._retire(request)

    def _fan_out_error(self, flight: _Flight, exc: BaseException) -> None:
        if flight.key is not None:
            self._flights.pop(flight.key, None)
        for request in flight.waiters:
            if request.future.done():
                continue
            request.status = FAILED
            request.error = f"{type(exc).__name__}: {exc}"
            request.future.set_exception(exc)
            self._metrics.increment("requests_failed")
            self._retire(request)

    def _unqueue_flight(self, flight: _Flight) -> None:
        """Release the queue slot of a queued flight with no waiters left."""
        queue = self._client_queues.get(flight.client_id)
        if queue is not None:
            try:
                queue.remove(flight)
            except ValueError:  # pragma: no cover - defensive; loop-confined
                return
            self._queued_flights -= 1
            if not queue:
                del self._client_queues[flight.client_id]
        if flight.key is not None:
            self._flights.pop(flight.key, None)
        flight.state = CANCELLED
        self._metrics.increment("flights_cancelled")

    def _retire(self, request: _Request) -> None:
        """Keep a bounded history of finished requests for status polling."""
        self._done_ids.append(request.request_id)
        while len(self._done_ids) > HISTORY_LIMIT:
            evicted = self._done_ids.popleft()
            self._requests.pop(evicted, None)

    def _observe_duration(self, seconds: float) -> None:
        self._avg_flight_seconds += 0.2 * (seconds - self._avg_flight_seconds)

    def _estimate_retry_after(self) -> float:
        # A full queue drains through the dispatch slots at the observed
        # average flight duration; suggest waiting for about one slot's
        # share of that backlog.
        backlog = self._queued_flights + self._dispatch_slots
        return max(0.05, self._avg_flight_seconds * backlog / self._dispatch_slots)
