"""The artifact store: the disk tier of the compiled-plan cache.

:class:`ArtifactStore` is the persistence protocol — atomic
write-then-rename, SHA-256 digest verification, quarantine of corrupt
entries, sweeping of stale temporary files, and LRU byte-bounded eviction
— parameterized by payload *dump/load* callbacks, so the compiled-plan
cache (:mod:`repro.engine.plancache`) supplies only its codec and a format
or fsync change lands in exactly one place.

Layout and protocol
-------------------
Each store owns one *namespace* sub-directory of a shared ``cache_dir``
(the plan cache's is ``plans/``); several processes may share one
directory.  Entries are ``<namespace>/<key>.npz`` archives holding the
client's named arrays plus two reserved members:

* ``__meta__`` — a JSON envelope ``{format, namespace, key, meta}`` where
  ``meta`` is the client's JSON-serializable metadata;
* ``__digest__`` — a SHA-256 over the array names, shapes, dtypes and raw
  bytes together with the envelope, re-verified on every load.

The write path is *atomic*: payloads are serialized into a ``.tmp`` file
created with :func:`tempfile.mkstemp` in the destination directory and
published with :func:`os.replace`, so a concurrent reader (another process
sharing the ``cache_dir``) never observes a half-written entry.  Concurrent
writers of the same key write identical bytes, so that race is benign.

The read path *never raises* on bad data: a truncated archive, non-npz
garbage, a missing member, a namespace/format/key mismatch, a digest
mismatch, or a client ``load`` rejection all count as a **miss**.  The
offending file is *quarantined* — renamed to ``<key>.quarantine`` so the
next lookup is a clean miss and the re-spilled entry does not fight the
corrupt bytes — and the corruption counter increments.  Quarantine files
are kept briefly for postmortem inspection and swept once stale (they are
age-bounded exactly like orphaned ``.tmp`` files), so repeated corruption
cannot grow a ``cache_dir`` without bound; the sweep runs when a store
opens a directory and piggybacks on eviction passes.

The tier is LRU-bounded by total ``.npz`` bytes (``max_bytes``): file
mtimes order the entries, hits refresh them via :func:`os.utime`, and an
eviction pass drops least-recently-used files once the running total
exceeds the bound.  The running total is maintained incrementally and
recalibrated by directory scans, so populating *n* entries costs ``O(n)``
stat calls overall rather than ``O(n^2)``.

Eviction passes are coordinated *across processes* by an advisory file
lock (``.evict.lock`` per namespace): readers hold it shared around each
entry load, eviction passes hold it exclusive (non-blocking — a contended
pass is skipped, someone else is already evicting), so workers hammering
one shared ``cache_dir`` (the sharded sweep runner, :mod:`repro.shard`)
never observe an artifact unlinked mid-read.  The lock is best-effort
coordination: without :mod:`fcntl` the store runs uncoordinated and a
lost race stays what it always was — a quarantine-or-miss, never an
error.

The directory is fixed when the store is built.  All filesystem I/O
happens outside the store lock — only counter and bookkeeping updates take
it — so a client's memory-tier lookups never queue behind another thread's
file read.  An unusable directory (a regular file in the way, no
permission, a full disk) degrades the client to memory-only caching, never
an error, and failed spills are remembered per key so an unwritable tier
does not re-pay serialization on every repeated spill.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "DEFAULT_DISK_MAX_BYTES",
    "TMP_SWEEP_AGE_SECONDS",
]

#: Default byte bound of one store's disk tier.
DEFAULT_DISK_MAX_BYTES = 512 * 1024 * 1024

#: Age after which an orphaned ``.tmp`` file (a writer died between
#: ``mkstemp`` and the atomic rename) or a ``.quarantine`` file (corrupt
#: bytes kept for postmortem) is swept; old enough that no live writer can
#: still be producing the former, and long enough that the latter can still
#: be inspected after a failure.
TMP_SWEEP_AGE_SECONDS = 3600.0

#: Reserved ``.npz`` member names; client array names must not use them.
_META_MEMBER = "__meta__"
_DIGEST_MEMBER = "__digest__"

#: Name of the per-namespace advisory lock file coordinating eviction
#: passes with readers across processes (not an entry: no ``.npz`` suffix,
#: so it is invisible to lookups and usage scans; ``clear`` removes it
#: along with everything else).
_EVICTION_LOCK_NAME = ".evict.lock"


@contextmanager
def _advisory_lock(
    disk_dir: Path, *, exclusive: bool, blocking: bool = True
) -> Iterator[bool]:
    """Advisory file lock over one namespace directory; yields *acquired*.

    Readers take the lock shared around a single entry load; eviction
    passes take it exclusive (non-blocking — a contended pass is simply
    skipped, another process is already evicting), so a concurrent worker
    sharing the ``cache_dir`` never unlinks an artifact mid-read.  This is
    coordination, not correctness: on a platform without :mod:`fcntl`, or
    when the lock file cannot be opened, the caller proceeds uncoordinated
    and a racing eviction degrades the read to a quarantine-or-miss, never
    an error.  A worker killed while holding the lock releases it with its
    file descriptors, so crashed shards cannot wedge the shared store.
    """
    if fcntl is None or not disk_dir.is_dir():
        yield True
        return
    try:
        fd = os.open(
            str(disk_dir / _EVICTION_LOCK_NAME),
            os.O_RDWR | os.O_CREAT,
            0o644,
        )
    except OSError:
        yield True
        return
    acquired = False
    try:
        flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        if not blocking:
            flags |= fcntl.LOCK_NB
        try:
            fcntl.flock(fd, flags)
            acquired = True
        except OSError:
            pass
        yield acquired
    finally:
        if acquired:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
        os.close(fd)

#: ``dump(payload) -> (arrays, meta) | None``: split a payload into named
#: arrays plus JSON-serializable metadata, or ``None`` when the payload
#: cannot be persisted (the entry then stays memory-only).
DumpFn = Callable[[Any], Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]]

#: ``load(arrays, meta) -> payload | None``: rebuild a payload from
#: digest-verified arrays and metadata; ``None`` (or any exception) marks
#: the entry corrupt.
LoadFn = Callable[[Dict[str, np.ndarray], Dict[str, Any]], Optional[Any]]


@dataclass(frozen=True)
class StoreStats:
    """Immutable snapshot of one store's activity counters.

    Attributes
    ----------
    hits:
        Lookups served by loading (and digest-verifying) a disk entry.
    misses:
        Probes that found no usable entry — absent, corrupt, or rejected by
        verification.  Only counted while a ``cache_dir`` is attached.
    corruptions:
        Entries rejected by verification (each one is also a miss; the file
        is quarantined).
    evictions:
        Entries removed to respect the byte bound.
    """

    hits: int = 0
    misses: int = 0
    corruptions: int = 0
    evictions: int = 0


class ArtifactStore:
    """One namespace of the persistent artifact cache (see the module docs).

    Parameters
    ----------
    namespace:
        Sub-directory of ``cache_dir`` this store owns (``plans`` for the
        compiled-plan cache).  The namespace is folded into every entry's
        digest envelope, so an archive copied between namespaces reads as a
        miss instead of garbage.
    dump, load:
        The payload serialization pair (see :data:`DumpFn` / :data:`LoadFn`).
        Everything else — atomicity, digests, quarantine, eviction — is the
        store's job.
    cache_dir:
        Root of the shared artifact cache, or ``None`` (the default) for a
        detached store: lookups miss silently and spills are dropped, so
        clients need no "is there a disk tier?" branching.
    format_version:
        Client payload-layout version, embedded in the envelope; entries
        written by other versions read as misses rather than garbage.
    max_bytes:
        LRU byte bound of this namespace.
    """

    def __init__(
        self,
        namespace: str,
        *,
        dump: DumpFn,
        load: LoadFn,
        cache_dir: Union[None, str, Path] = None,
        format_version: int = 1,
        max_bytes: int = DEFAULT_DISK_MAX_BYTES,
    ) -> None:
        if not namespace or "/" in namespace or namespace.startswith("."):
            raise ValueError(f"invalid store namespace {namespace!r}")
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self._namespace = namespace
        self._dump = dump
        self._load = load
        self._format_version = int(format_version)
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._corruptions = 0
        self._evictions = 0
        self._dir: Optional[Path] = (
            None if cache_dir is None else Path(cache_dir) / namespace
        )
        # Keys this store will not spill again: known to be on disk, or a
        # spill already failed (an unwritable tier must not re-pay payload
        # serialization and hashing on every repeated compile).
        self._no_spill: set = set()
        # Running byte total of the tier (None = unknown, recalibrated by
        # the next eviction pass), so spills do not re-scan the directory.
        self._total: Optional[int] = None
        if self._dir is not None:
            self._sweep_stale(self._dir)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def namespace(self) -> str:
        """The sub-directory name this store owns."""
        return self._namespace

    @property
    def cache_dir(self) -> Optional[Path]:
        """Root of the shared artifact cache (``None`` when detached)."""
        return None if self._dir is None else self._dir.parent

    @property
    def max_bytes(self) -> int:
        """LRU byte bound of this namespace."""
        return self._max_bytes

    @property
    def stats(self) -> StoreStats:
        """Snapshot of the hit/miss/corruption/eviction counters."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                corruptions=self._corruptions,
                evictions=self._evictions,
            )

    def usage(self) -> Tuple[int, int]:
        """``(n_entries, total_bytes)`` currently on disk (``(0, 0)`` if none).

        Measured by scanning the directory (outside the lock — usage is
        maintenance, lookups must not queue behind it), so the numbers
        reflect every process sharing the ``cache_dir``.
        """
        disk_dir = self._dir
        if disk_dir is None or not disk_dir.is_dir():
            return 0, 0
        count = 0
        total = 0
        try:
            listing = list(disk_dir.iterdir())
        except OSError:
            return 0, 0
        for path in listing:
            if path.suffix != ".npz":
                continue
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return count, total

    # ------------------------------------------------------------------ #
    # Sweeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sweep_stale(disk_dir: Path) -> None:
        """Drop stale ``.tmp`` and ``.quarantine`` leftovers.

        Runs when a store opens its directory, so long-lived shared cache
        directories cannot accumulate the leftovers of past failures —
        writers that died mid-spill, corrupt entries.  Recent files are
        presumed live — an in-flight write of another process, or a corrupt
        entry someone may still want to inspect — and kept until they age
        past :data:`TMP_SWEEP_AGE_SECONDS`.
        """
        now = time.time()
        try:
            listing = list(disk_dir.iterdir()) if disk_dir.is_dir() else []
        except OSError:
            return
        for path in listing:
            if path.suffix not in (".tmp", ".quarantine"):
                continue
            try:
                if now - path.stat().st_mtime > TMP_SWEEP_AGE_SECONDS:
                    path.unlink()
            except OSError:
                continue

    # ------------------------------------------------------------------ #
    # Serialization internals
    # ------------------------------------------------------------------ #
    def _envelope(self, key: str, meta: Dict[str, Any]) -> Optional[str]:
        try:
            return json.dumps(
                {
                    "format": self._format_version,
                    "namespace": self._namespace,
                    "key": key,
                    "meta": meta,
                },
                sort_keys=True,
            )
        except (TypeError, ValueError):
            return None

    @staticmethod
    def _payload_digest(arrays: Dict[str, np.ndarray], envelope: str) -> str:
        """SHA-256 over the exact bytes an entry stores (verification tag)."""
        hasher = hashlib.sha256()
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            hasher.update(repr((name, arr.shape, arr.dtype.str)).encode("utf8"))
            hasher.update(arr.tobytes())
        hasher.update(envelope.encode("utf8"))
        return hasher.hexdigest()

    def _write(self, disk_dir: Path, key: str, payload: Any) -> Tuple[bool, int]:
        """Serialize and atomically publish one entry; ``(written, size)``."""
        try:
            dumped = self._dump(payload)
        except Exception:
            dumped = None
        if dumped is None:
            return False, 0
        arrays, meta = dumped
        if any(name in (_META_MEMBER, _DIGEST_MEMBER) for name in arrays):
            return False, 0
        envelope = self._envelope(key, meta)
        if envelope is None:
            # Non-JSON-serializable metadata (exotic diagnostics) simply
            # stays memory-only rather than failing the run.
            return False, 0
        digest = self._payload_digest(arrays, envelope)
        path = disk_dir / f"{key}.npz"
        try:
            disk_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(disk_dir), prefix=path.stem, suffix=".tmp"
            )
        except OSError:
            return False, 0
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    **{name: np.ascontiguousarray(arr) for name, arr in arrays.items()},
                    **{
                        _META_MEMBER: np.frombuffer(
                            envelope.encode("utf8"), dtype=np.uint8
                        ),
                        _DIGEST_MEMBER: np.frombuffer(
                            digest.encode("ascii"), dtype=np.uint8
                        ),
                    },
                )
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False, 0
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        return True, size

    def _read(self, path: Path, key: str) -> Optional[Any]:
        """Load and verify one entry; ``None`` on any defect."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name not in (_META_MEMBER, _DIGEST_MEMBER)
                }
                envelope = bytes(archive[_META_MEMBER].tobytes()).decode("utf8")
                digest = bytes(archive[_DIGEST_MEMBER].tobytes()).decode("ascii")
        except Exception:
            # np.load raises zipfile/OSError/KeyError/ValueError flavors on
            # corruption; all of them mean "not a usable entry".
            return None
        if self._payload_digest(arrays, envelope) != digest:
            return None
        try:
            parsed = json.loads(envelope)
        except ValueError:
            return None
        if (
            not isinstance(parsed, dict)
            or parsed.get("format") != self._format_version
            or parsed.get("namespace") != self._namespace
            or parsed.get("key") != key
        ):
            return None
        meta = parsed.get("meta")
        try:
            return self._load(arrays, meta if isinstance(meta, dict) else {})
        except Exception:
            return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside so the next lookup is a clean miss.

        The bytes are kept (briefly — see :meth:`_sweep_stale`) for
        postmortem inspection; repeated corruption of one key overwrites
        the same quarantine file, so growth stays bounded per key.
        """
        try:
            os.replace(path, path.with_suffix(".quarantine"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[Any]:
        """Return the stored payload for ``key`` or ``None`` (a miss).

        A detached store (no ``cache_dir``) misses silently without
        counting.  Hits refresh the entry's LRU position; every defect
        quarantines the file and counts a corruption.
        """
        disk_dir = self._dir
        if disk_dir is None:
            return None
        path = disk_dir / f"{key}.npz"
        # Shared advisory lock around the single-entry read: a concurrent
        # eviction pass (exclusive holder) of another process sharing the
        # cache_dir cannot unlink the file mid-load.  Uncoordinated
        # platforms degrade gracefully — a lost race is a quarantine-or-
        # miss, never an error.
        with _advisory_lock(disk_dir, exclusive=False):
            present = path.exists()
            payload = self._read(path, key) if present else None
        if payload is None:
            if present:
                self._quarantine(path)
            with self._lock:
                if present:
                    self._corruptions += 1
                    self._no_spill.discard(key)
                    self._total = None  # force recalibration
                self._misses += 1
            return None
        try:
            os.utime(path)  # refresh the LRU position
        except OSError:
            pass
        with self._lock:
            self._no_spill.add(key)
            self._hits += 1
        return payload

    def invalidate(self, key: str) -> None:
        """Quarantine an entry whose *content* the client rejected.

        The digest protects bytes, not meaning: an artifact can verify yet
        fail the client's re-binding (a layout change shipped without a
        format bump, a key collision).  Without this, such an entry would
        poison its key forever — ``lookup`` counts a hit and marks the key
        no-spill, so the recomputed result would never be re-spilled over
        the stale file.  Invalidation quarantines the file, clears the
        no-spill mark so the next :meth:`put` rewrites it, and corrects the
        already-counted hit into a corruption miss.
        """
        if self._dir is None:
            return
        path = self._dir / f"{key}.npz"
        if path.exists():
            self._quarantine(path)
        with self._lock:
            self._no_spill.discard(key)
            self._total = None  # force recalibration
            self._hits -= 1
            self._misses += 1
            self._corruptions += 1

    def put(self, key: str, payload: Any) -> bool:
        """Spill one payload (idempotent per key); ``True`` if written.

        Keys already known to be on disk — or whose spill already failed —
        return immediately without re-paying serialization.  Concurrent
        spillers of the same key write identical bytes through atomic
        renames, so the race is benign; the byte total may double-count
        briefly, which the next eviction pass recalibrates.
        """
        with self._lock:
            if self._dir is None or key in self._no_spill:
                return False
        written, size = self._write(self._dir, key, payload)
        needs_evict = False
        with self._lock:
            # A *failed* write also marks the key: an unusable tier degrades
            # to memory-only caching instead of re-paying serialization on
            # every subsequent spill of the key.
            self._no_spill.add(key)
            if written:
                if self._total is not None:
                    self._total += size
                needs_evict = self._total is None or self._total > self._max_bytes
        if needs_evict:
            self._evict(self._dir)
        return written

    def _evict(self, disk_dir: Path) -> bool:
        """Scan the tier, recalibrate the byte total, drop LRU files past the bound.

        Runs only when the running total is unknown or exceeds the bound —
        not on every spill.  The scan doubles as recalibration against other
        processes sharing the directory and sweeps stale ``.tmp`` and
        ``.quarantine`` leftovers.

        The whole pass holds the namespace's advisory lock *exclusive* and
        *non-blocking*: concurrent readers (shared holders) are never
        interrupted mid-load, and a pass contended by another process's
        eviction is skipped — that process is already recalibrating, and
        this store's stale running total re-triggers a pass on the next
        spill.  Returns whether the pass ran.
        """
        with _advisory_lock(disk_dir, exclusive=True, blocking=False) as acquired:
            if not acquired:
                return False
            files: List[Tuple[float, int, Path]] = []
            total = 0
            now = time.time()
            try:
                listing = list(disk_dir.iterdir()) if disk_dir.is_dir() else []
            except OSError:
                listing = []
            for path in listing:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if path.suffix in (".tmp", ".quarantine"):
                    # Invisible to lookups and to the byte bound; sweep once
                    # clearly not an in-flight write / fresh postmortem.
                    if now - stat.st_mtime > TMP_SWEEP_AGE_SECONDS:
                        try:
                            path.unlink()
                        except OSError:
                            pass
                    continue
                if path.suffix != ".npz":
                    continue
                files.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            evicted = []
            for _, size, path in sorted(files):
                if total <= self._max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                evicted.append(path.stem)  # file name is the key
                total -= size
        with self._lock:
            for key in evicted:
                self._no_spill.discard(key)
            self._evictions += len(evicted)
            self._total = total
        return True

    def evict_pass(self) -> bool:
        """Run one LRU eviction/recalibration pass now (maintenance).

        The same pass :meth:`put` triggers once the running total passes
        the bound, exposed so maintenance callers — the CLI, tests, a
        shared-``cache_dir`` coordinator after its workers finish — can
        re-establish the byte bound without spilling anything.  Returns
        whether a pass ran (``False`` when detached or when another
        process held the eviction lock).
        """
        if self._dir is None:
            return False
        return self._evict(self._dir)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Remove every file of this namespace (``.tmp`` and ``.quarantine``
        leftovers and the advisory lock file included); returns the number
        of *entries* removed.

        Like every other operation, the filesystem walk happens outside the
        lock — only the bookkeeping update takes it — so concurrent
        lookups never queue behind the unlinks.
        """
        disk_dir = self._dir
        removed_keys: List[str] = []
        try:
            listing = (
                list(disk_dir.iterdir())
                if disk_dir is not None and disk_dir.is_dir()
                else []
            )
        except OSError:
            listing = []
        for path in listing:
            if (
                path.suffix not in (".npz", ".tmp", ".quarantine")
                and path.name != _EVICTION_LOCK_NAME
            ):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if path.suffix == ".npz":
                removed_keys.append(path.stem)
        with self._lock:
            for key in removed_keys:
                self._no_spill.discard(key)
            # Concurrent spills may have landed after the walk; let the
            # next eviction pass recalibrate instead of assuming empty.
            self._total = None
        return len(removed_keys)

    def reset_stats(self) -> None:
        """Zero the hit/miss/corruption/eviction counters (entries kept)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._corruptions = 0
            self._evictions = 0
