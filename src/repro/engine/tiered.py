"""One tiered cache: a weighted memory LRU above an optional artifact-store namespace.

Compilation produces three costly artifacts worth keeping — the coloring
decomposition of a covariance matrix, the Young–Beaulieu filter of
Eq. (21), and the whole compiled plan — and each is cached the same way:

* a **memory tier**: an LRU bounded by the total *weight* of its entries
  (``size_of``: 1 per decomposition, resident bytes per filter or plan);
* for compiled plans only, a **disk tier**: the ``plans/`` namespace of
  the :class:`repro.engine.store.ArtifactStore`, which owns the on-disk
  format and its safety protocol (atomic writes, digest verification,
  quarantine, eviction, cross-process locking).

Decompositions and filters stay in memory: at the paper's sizes a
recompute costs less than a verified disk load, and ``plans/`` already
serves a repeated plan across processes (ROADMAP item 8 has the numbers).

:class:`TieredCache` is that machinery, written once.  It owns the memory
LRU, the lock, the hit/miss/eviction counters and their :class:`TierStats`
snapshot, disk-hit promotion (when a store is given) and the compile
singleflight table.  Every instance has one owner: a session
(:class:`repro.engine.SimulationEngine`) or a caller that builds one and
passes it in.  No cache is shared across the process behind a caller's
back.
The three caches built on it — :class:`repro.engine.cache.DecompositionCache`,
:class:`repro.engine.filters.DopplerFilterCache` and
:class:`repro.engine.plancache.CompiledPlanCache` — each supply a key, a
freeze function, ``size_of``, and one domain method; the plan cache also
supplies its store.

Safety rules every tier inherits:

* values are frozen read-only before any tier keeps or returns them, so an
  in-place mutation fails loudly in every configuration;
* a corrupt disk entry, or one the caller rejects on use, is a miss and is
  quarantined (:meth:`TieredCache.invalidate` clears both tiers);
* when two threads insert the same key, the first insert wins and every
  caller receives that already-shared object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Optional, Tuple, TypeVar

from .store import ArtifactStore, StoreStats

__all__ = [
    "TierStats",
    "TieredCache",
]

V = TypeVar("V")


@dataclass(frozen=True)
class TierStats:
    """Immutable snapshot of one tiered cache's counters.

    Attributes
    ----------
    hits:
        Lookups served by *any* tier (memory or a verified disk entry).
    misses:
        Lookups no tier could serve (the caller computed and stored).
    evictions:
        Memory entries dropped to respect the memory bound.
    size:
        Entries currently held in memory.
    weight:
        Total ``size_of`` of those entries, in the unit of the memory bound
        (entries for decompositions, bytes for filters and plans).
    disk_hits:
        Lookups served by loading a disk entry after a memory miss;
        ``hits - disk_hits`` is the memory-tier hit count.  This and every
        other ``disk_*`` field stay 0 for the memory-only caches.
    disk_misses:
        Disk probes that found no usable entry (absent, corrupt, or
        rejected).  Only counted while a ``cache_dir`` is attached.
    disk_evictions:
        Disk entries removed to respect the disk byte bound.
    disk_corruptions:
        Disk entries rejected by verification or by the caller (each is also
        a ``disk_miss``; the file is quarantined).
    disk_entries, disk_bytes:
        Files currently in the disk tier and their total size (a directory
        scan, so every process sharing the ``cache_dir`` counts).
    inflight_leads, inflight_coalesced:
        Compile singleflight: computations that registered as the leader of
        their key, and computations that waited on a concurrent leader
        instead of duplicating its work.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    weight: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    disk_corruptions: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    inflight_leads: int = 0
    inflight_coalesced: int = 0

    @property
    def memory_hits(self) -> int:
        """Lookups served from the in-memory tier."""
        return self.hits - self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0


def _unit_weight(value: Any) -> int:
    return 1


def _as_is(value: Any, from_disk: bool) -> Any:
    return value


class TieredCache(Generic[V]):
    """Thread-safe memory LRU over an optional :class:`ArtifactStore` namespace.

    Parameters
    ----------
    freeze:
        Makes a value's shared arrays read-only and returns it; applied to
        every stored and every disk-loaded value.
    size_of:
        Weight of one value against ``memory_bound`` (default 1 per entry).
    memory_bound:
        Bound on the total weight held in memory; ``0`` disables the memory
        tier.
    store:
        The disk tier, or ``None`` for a memory-only cache.  Its ``load``
        must return the same resident form that :meth:`_put` stores, so one
        consumer serves both tiers.
    """

    def __init__(
        self,
        *,
        freeze: Callable[[V], V],
        size_of: Callable[[V], int] = _unit_weight,
        memory_bound: int,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if memory_bound < 0:
            raise ValueError(
                f"memory bound must be non-negative, got {memory_bound}"
            )
        self._memory_bound = int(memory_bound)
        self._freeze = freeze
        self._size_of = size_of
        # key -> (value, weight), least recently used first.
        self._entries: "OrderedDict[str, Tuple[V, int]]" = OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Singleflight table: key -> the event its leader sets once the
        # result landed in the cache (or the computation failed).
        self._inflight: Dict[str, threading.Event] = {}
        self._inflight_leads = 0
        self._inflight_coalesced = 0
        self._store = store

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def memory_bound(self) -> int:
        """Bound of the memory tier (``0`` = disabled)."""
        return self._memory_bound

    @property
    def enabled(self) -> bool:
        """Whether the cache keeps anything: a memory bound above 0.

        A disk tier only ever sits below a memory tier, so this covers it.
        """
        return self._memory_bound > 0

    @property
    def stats(self) -> TierStats:
        """Snapshot of every tier's counters.

        Disk usage is measured by scanning the directory outside the cache
        lock, so lookups never queue behind a stats call.
        """
        with self._lock:
            counters = dict(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                weight=self._weight,
                inflight_leads=self._inflight_leads,
                inflight_coalesced=self._inflight_coalesced,
            )
        store = self._store
        disk = StoreStats() if store is None else store.stats
        disk_entries, disk_bytes = (0, 0) if store is None else store.usage()
        return TierStats(
            disk_hits=disk.hits,
            disk_misses=disk.misses,
            disk_evictions=disk.evictions,
            disk_corruptions=disk.corruptions,
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
            **counters,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------ #
    # Core operations (for the domain methods of subclasses)
    # ------------------------------------------------------------------ #
    def _lookup(self, key: str, use: Callable[[V, bool], Any] = _as_is) -> Any:
        """Serve ``key`` through ``use(value, from_disk)``, memory tier first.

        On a memory miss with a disk tier attached, the entry is loaded,
        verified, frozen and promoted into memory.  ``use`` turns the
        resident value into what the caller needs (the identity by
        default); when it returns ``None`` the value does not fit the
        request, and is dropped from the tier that served it: a memory
        entry falls through to the disk probe, a disk entry is invalidated
        in both tiers.  Every lookup counts exactly one hit or one miss.
        """
        served = self._lookup_memory(key, use)
        if served is not None:
            return served
        loaded = None if self._store is None else self._store.lookup(key)
        if loaded is not None:
            served = use(self._remember(key, self._freeze(loaded)), True)
            if served is None:
                self.invalidate(key)
        with self._lock:
            if served is None:
                self._misses += 1
            else:
                self._hits += 1
        return served

    def _lookup_memory(self, key: str, use: Callable[[V, bool], Any] = _as_is) -> Any:
        """The memory-tier half of :meth:`_lookup`: counts a hit, never a miss.

        On its own it serves a caller that has already counted its miss on
        ``key`` and probes again because another thread may have stored it
        since.  An entry ``use`` rejects is dropped.
        """
        with self._lock:
            slot = self._entries.get(key)
            if slot is not None:
                self._entries.move_to_end(key)
        if slot is None:
            return None
        served = use(slot[0], False)
        if served is None:
            self._drop(key)
            return None
        with self._lock:
            self._hits += 1
        return served

    def _put(self, key: str, value: V) -> Tuple[V, bool]:
        """Freeze and store ``value`` in every configured tier.

        Returns the resident value — the already-shared object when another
        thread inserted ``key`` first — and whether a disk file was written.
        """
        value = self._remember(key, self._freeze(value))
        return value, self._store is not None and self._store.put(key, value)

    def _remember(self, key: str, value: V) -> V:
        """Insert into the memory tier (first insert wins); return the resident value."""
        bound = self._memory_bound
        weight = self._size_of(value) if bound > 0 else 0
        with self._lock:
            slot = self._entries.get(key)
            if slot is not None:
                self._entries.move_to_end(key)
                return slot[0]
            # An entry heavier than the whole tier would evict everything
            # for one value that may never be requested again.
            if 0 < bound and weight <= bound:
                self._entries[key] = (value, weight)
                self._weight += weight
                while self._weight > bound:  # evict least recently used
                    _, (_, dropped) = self._entries.popitem(last=False)
                    self._weight -= dropped
                    self._evictions += 1
        return value

    def _drop(self, key: str) -> None:
        with self._lock:
            slot = self._entries.pop(key, None)
            if slot is not None:
                self._weight -= slot[1]

    def invalidate(self, key: str) -> None:
        """Evict ``key`` from *both* tiers after its content was rejected.

        The memory entry is dropped and the disk file quarantined in one
        call, so the tiers never disagree about a poisoned key; the store
        re-counts its already-counted disk hit as a corruption miss.
        """
        self._drop(key)
        if self._store is not None:
            self._store.invalidate(key)

    # ------------------------------------------------------------------ #
    # In-flight computation coalescing (singleflight)
    # ------------------------------------------------------------------ #
    def join_inflight(self, key: str) -> Optional[threading.Event]:
        """Register interest in the in-flight computation of ``key``.

        Returns ``None`` when the caller becomes the **leader**: it must
        compute, store the result, and then call :meth:`finish_inflight`
        (from a ``finally``) so waiters re-probe a warm cache.  Returns the
        leader's event otherwise: the caller waits on it, then looks up
        again instead of duplicating the work.  A disabled cache never
        registers (waiters would have no tier to find the result in).
        """
        if not self.enabled:
            return None
        with self._lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                self._inflight_leads += 1
                return None
            self._inflight_coalesced += 1
            return event

    def finish_inflight(self, key: str) -> None:
        """Release the in-flight entry of ``key`` and wake every waiter.

        Safe for keys that never registered; a failed leader calling this
        from a ``finally`` lets its waiters wake, miss, and elect a new one.
        """
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Drop every memory entry (counters and disk kept); returns how many."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._weight = 0
        return removed

    def reset_stats(self) -> None:
        """Zero every counter (entries are kept)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._inflight_leads = 0
            self._inflight_coalesced = 0
        if self._store is not None:
            self._store.reset_stats()

