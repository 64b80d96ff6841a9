"""Serving-layer metrics: thread-safe monotonic counters.

The serving core mutates its scheduling state only from the event-loop
thread, but metrics are read from anywhere (the HTTP front end, benchmark
harnesses, operator tooling polling ``/v1/metrics`` while flights resolve
on pool threads), so the counters get their own lock.  The counter set is
closed — incrementing an unknown name is a programming error and raises —
which keeps dashboards and the conservation checks of the property suite
honest: every request ends in exactly one of completed/failed/cancelled.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["ServiceMetrics"]

#: The closed set of counters the serving core maintains.
COUNTER_NAMES = (
    "requests_submitted",
    "requests_coalesced",
    "requests_rejected",
    "requests_too_large",
    "requests_completed",
    "requests_failed",
    "requests_cancelled",
    "flights_started",
    "flights_inline",
    "flights_pooled",
    "flights_completed",
    "flights_failed",
    "flights_cancelled",
)


class ServiceMetrics:
    """Monotonic counters of serving activity, safe to read cross-thread.

    ``requests_*`` count client-visible submissions (a coalesced request is
    both submitted and coalesced; a refused one — ``requests_rejected`` by
    backpressure, ``requests_too_large`` by admission — is never counted
    as submitted); ``flights_*`` count the deduplicated compile/execute
    units actually dispatched, each either ``flights_inline`` (on the
    event loop) or ``flights_pooled`` (on the thread pool), so
    ``flights_started == flights_inline + flights_pooled``.  The
    conservation invariant the property suite enforces: once the service
    drains,
    ``requests_submitted == requests_completed + requests_failed +
    requests_cancelled``.
    """

    def __init__(self) -> None:
        self._metrics_lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (raises on unknown names)."""
        with self._metrics_lock:
            if name not in self._counts:
                raise KeyError(f"unknown service counter {name!r}")
            self._counts[name] += amount

    def snapshot(self) -> Dict[str, int]:
        """A consistent point-in-time copy of every counter."""
        with self._metrics_lock:
            return dict(self._counts)
