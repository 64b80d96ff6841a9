"""The compiled-plan cache: whole :class:`CompiledPlan` objects, two tiers.

This is the one cache that persists: ``cache_dir`` holds a single
namespace, ``plans/``, and only when a caller builds the cache with one
(the directory is then fixed for the cache's lifetime).
:class:`CompiledPlanCache` is the executor-level cache on top of the
:class:`repro.engine.store.ArtifactStore` that short-circuits the whole
compile pass: :func:`repro.engine.compile.compile_plan` content-hashes the
plan and, on a hit, serves the full
:class:`~repro.engine.compile.CompiledPlan` — grouping, coloring stacks,
filters, per-entry effective variances — without touching
``eigh``/``cholesky`` or filter construction at all.  The decomposition and
Doppler-filter caches underneath stay in memory: at the paper's sizes a
recompute is cheaper than a verified disk load (ROADMAP item 8).

Two tiers, probed memory-first:

* the **memory tier** — a byte-bounded LRU of compiled groups inside the
  cache instance.  A hit re-binds the cached groups to the caller's plan
  (seeds and labels come from it) with **zero disk I/O and zero array
  copies**: the coloring stacks, decompositions, variances, and filter
  arrays are the very objects of the original compile, shared read-only.
  This is what makes a warm ``run(plan)``/``stream(plan)`` on one engine a
  hash-plus-rebind, nothing more.
* the **disk tier** — one verified artifact per key under ``plans/``.  A
  disk hit is promoted into the memory tier, so the first warm run of a
  process pays the load once and subsequent runs hit memory.

Both tiers are the shared :class:`repro.engine.tiered.TieredCache`.  A disk
load yields the same resident form a memory insert stores (groups without
their plan binding), so one re-bind function serves both tiers.

The memory tier comes with the disk tier: a cache built with a
``cache_dir`` holds up to :data:`DEFAULT_MEMORY_MAX_BYTES` of resident
plans, and one built without is the documented no-op, so hand-configured
engines and benchmarks keep their counters.  Coherence:
:meth:`CompiledPlanCache.invalidate` evicts a key from *both* tiers — a
quarantined disk artifact never leaves a stale memory entry behind.

Keying
------
:func:`compiled_plan_cache_key` folds, per entry *in plan order*, the
decomposition cache key (covariance bytes, coloring/PSD methods, epsilon,
numeric tolerances, the constant linalg token ``numpy``) plus the
white-sample variance, the full Doppler tuple (``M``, ``f_m``,
``sigma_orig^2``, the Eq. (19) compensation flag), and the fading-model
token (:meth:`repro.models.fading.FadingSpec.fading_token`: model, shape
parameter, shadowing spread).  Seeds and labels are deliberately *excluded*: they do
not influence compilation, so a sweep that only re-seeds its scenarios
warm-starts from the same artifact.  Because grouping is a pure function of
the hashed fields and of entry order, two plans with equal keys compile to
structurally identical plans — which is what lets a loaded artifact be
re-bound to the *caller's* plan object (carrying the caller's seeds and
labels) without any recomputation.

Serialization
-------------
One artifact stores, deduplicated across groups: the unique
:class:`~repro.linalg.ColoringDecomposition` arrays plus diagnostics, the
unique Young–Beaulieu filter coefficient arrays, and per group its entry
indices, decomposition map, sample variances, Eq. (19) output variance and
fading family.
Coloring stacks are *not* stored — they are re-stacked from the
decomposition arrays exactly as a fresh compile stacks them, which keeps
the artifact small and the bytes identical.  The store handles atomic
writes, digest verification, quarantine and eviction; a corrupt or
truncated artifact is a **miss** (the plan recompiles and re-spills), never
an error, and a disk hit is bit-identical to a fresh compilation — the two
standing cache invariants carried over from PR 4.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np

from ..linalg import ColoringDecomposition
from .cache import LINALG_TOKEN
from .store import DEFAULT_DISK_MAX_BYTES, ArtifactStore
from .tiered import TieredCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .compile import CompiledGroup, CompiledPlan, CompileReport
    from .plan import SimulationPlan

__all__ = [
    "DEFAULT_MEMORY_MAX_BYTES",
    "CompiledPlanCache",
    "compiled_plan_cache_key",
]

#: Byte bound of the memory tier of a cache built with a ``cache_dir``.
DEFAULT_MEMORY_MAX_BYTES = 256 * 1024 * 1024

#: On-disk payload-layout version of compiled-plan artifacts.  Version 2
#: folded the per-entry fading token into the key; version 3 records each
#: group's fading family, so a disk load yields the same resident form as a
#: memory insert.  The version is part of the key prefix, so older
#: artifacts simply never hit again — clean invalidation, no migration.
_DISK_FORMAT_VERSION = 3


def compiled_plan_cache_key(plan: "SimulationPlan") -> str:
    """Content hash identifying one plan's compilation.

    Two plans receive the same key exactly when :func:`compile_plan` would
    produce structurally identical compiled plans for them: every
    compilation input — per-entry covariance bytes, algorithm options,
    numeric tolerances, sample variance, Doppler parameters and fading-model
    token — is folded in, in plan order.  Seeds and labels are excluded (they are
    execution-time inputs), so re-seeded sweeps share one artifact.
    """
    hasher = hashlib.sha256()
    hasher.update(f"compiled-plan|{_DISK_FORMAT_VERSION}|{LINALG_TOKEN}".encode("utf8"))
    for entry in plan:
        # The entry cache key already folds the matrix bytes, methods,
        # epsilon, tolerances, and the linalg token (memoized per entry).
        hasher.update(entry.cache_key().encode("ascii"))
        doppler = entry.doppler
        doppler_token = (
            None
            if doppler is None
            else (
                doppler.n_points,
                doppler.normalized_doppler,
                doppler.input_variance_per_dim,
                doppler.compensate_variance,
            )
        )
        fading = entry.fading
        fading_token = None if fading is None else fading.fading_token()
        hasher.update(
            repr(
                (float(entry.sample_variance), doppler_token, fading_token)
            ).encode("utf8")
        )
    return hasher.hexdigest()


@dataclass(frozen=True)
class _ResidentPlan:
    """The resident form of one compiled plan, shared by both tiers.

    Groups keep every numeric array of the compile but no plan binding:
    ``entries`` is empty and ``doppler`` is ``None`` until :func:`_rebind`
    swaps in the caller's.  The report keeps only the plan's structure
    (entries, groups, unique matrices, Doppler filter counts).
    """

    groups: Tuple["CompiledGroup", ...]
    report: "CompileReport"


def _resident_from_compiled(compiled: "CompiledPlan") -> _ResidentPlan:
    """Strip a fresh compile down to the form a disk load produces."""
    return _ResidentPlan(
        groups=tuple(
            dataclasses.replace(group, entries=(), doppler=None)
            for group in compiled.groups
        ),
        report=dataclasses.replace(
            compiled.report,
            cache_hits=0,
            cache_misses=0,
            compile_seconds=0.0,
            doppler_filter_cache_hits=0,
            plan_cache_hits=0,
            plan_memory_hits=0,
            plan_inflight_hits=0,
        ),
    )


def _dump_plan(
    resident: _ResidentPlan,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Split a resident plan into store payload (arrays + JSON meta).

    Decompositions and filter arrays shared between groups are stored once
    and referenced by index, mirroring the sharing a fresh compile creates.
    """
    arrays: Dict[str, np.ndarray] = {}
    decomp_index: Dict[int, int] = {}
    decomp_meta = []
    filter_index: Dict[int, int] = {}
    groups_meta = []
    for g, group in enumerate(resident.groups):
        decomp_map = []
        for decomposition in group.decompositions:
            index = decomp_index.get(id(decomposition))
            if index is None:
                index = len(decomp_meta)
                decomp_index[id(decomposition)] = index
                arrays[f"decomp_{index}_coloring"] = decomposition.coloring_matrix
                arrays[f"decomp_{index}_effective"] = (
                    decomposition.effective_covariance
                )
                arrays[f"decomp_{index}_requested"] = (
                    decomposition.requested_covariance
                )
                decomp_meta.append(
                    {
                        "method": decomposition.method,
                        "was_repaired": bool(decomposition.was_repaired),
                        "negative_eigenvalue_count": int(
                            decomposition.negative_eigenvalue_count
                        ),
                        "min_eigenvalue": float(decomposition.min_eigenvalue),
                        "extra": decomposition.extra,
                    }
                )
            decomp_map.append(index)
        arrays[f"group_{g}_indices"] = np.asarray(group.indices, dtype=np.int64)
        arrays[f"group_{g}_decomp_map"] = np.asarray(decomp_map, dtype=np.int64)
        arrays[f"group_{g}_sample_variances"] = np.ascontiguousarray(
            group.sample_variances, dtype=float
        )
        group_meta: Dict[str, Any] = {"filter": None, "fading": group.fading_family}
        if group.doppler_filter is not None:
            findex = filter_index.get(id(group.doppler_filter))
            if findex is None:
                findex = len(filter_index)
                filter_index[id(group.doppler_filter)] = findex
                arrays[f"filter_{findex}"] = group.doppler_filter
            group_meta["filter"] = findex
            arrays[f"group_{g}_output_variance"] = np.asarray(
                [group.doppler_output_variance], dtype=float
            )
        groups_meta.append(group_meta)
    report = resident.report
    meta = {
        "n_entries": int(report.n_entries),
        "decompositions": decomp_meta,
        "groups": groups_meta,
        "report": {
            "n_unique_matrices": int(report.n_unique_matrices),
            "doppler_filters_built": int(report.doppler_filters_built),
            "doppler_entries": int(report.doppler_entries),
        },
    }
    return arrays, meta


def _load_plan(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> Optional[_ResidentPlan]:
    """Rebuild a resident plan from digest-verified store payload.

    Returns ``None`` (the store then quarantines the file) unless the groups
    tile ``n_entries`` plan indices with one decomposition per entry.
    """
    from .compile import CompiledGroup, CompileReport

    n_entries = int(meta["n_entries"])
    decompositions = [
        ColoringDecomposition(
            coloring_matrix=arrays[f"decomp_{index}_coloring"],
            effective_covariance=arrays[f"decomp_{index}_effective"],
            requested_covariance=arrays[f"decomp_{index}_requested"],
            method=str(decomp_meta["method"]),
            was_repaired=bool(decomp_meta["was_repaired"]),
            negative_eigenvalue_count=int(decomp_meta["negative_eigenvalue_count"]),
            min_eigenvalue=float(decomp_meta["min_eigenvalue"]),
            extra=dict(decomp_meta.get("extra") or {}),
        )
        for index, decomp_meta in enumerate(meta["decompositions"])
    ]
    filters: Dict[int, np.ndarray] = {}
    groups = []
    covered = 0
    for g, group_meta in enumerate(meta["groups"]):
        indices = tuple(int(i) for i in arrays[f"group_{g}_indices"])
        group_decomps = tuple(
            decompositions[int(j)] for j in arrays[f"group_{g}_decomp_map"]
        )
        if len(group_decomps) != len(indices) or not all(
            0 <= i < n_entries for i in indices
        ):
            return None
        covered += len(indices)
        findex = group_meta["filter"]
        doppler_filter = None
        output_variance = None
        if findex is not None:
            doppler_filter = filters.setdefault(
                int(findex), arrays[f"filter_{int(findex)}"]
            )
            output_variance = float(arrays[f"group_{g}_output_variance"][0])
        fading = group_meta["fading"]
        groups.append(
            CompiledGroup(
                indices=indices,
                entries=(),
                # Re-stacked from the stored arrays exactly as a fresh
                # compile stacks them — np.stack copies bytes, so the stack
                # is bit-identical.
                coloring_stack=np.stack([d.coloring_matrix for d in group_decomps]),
                sample_variances=arrays[f"group_{g}_sample_variances"],
                decompositions=group_decomps,
                doppler_filter=doppler_filter,
                doppler_output_variance=output_variance,
                fading_family=None if fading is None else (str(fading[0]), bool(fading[1])),
            )
        )
    if covered != n_entries:
        return None
    stored = meta["report"]
    report = CompileReport(
        n_entries=n_entries,
        n_groups=len(groups),
        n_unique_matrices=int(stored["n_unique_matrices"]),
        cache_hits=0,
        cache_misses=0,
        compile_seconds=0.0,
        doppler_filters_built=int(stored["doppler_filters_built"]),
        doppler_entries=int(stored["doppler_entries"]),
    )
    return _ResidentPlan(groups=tuple(groups), report=report)


def _freeze_plan(resident: _ResidentPlan) -> _ResidentPlan:
    """Freeze the arrays a resident plan shares with every future hit."""
    for group in resident.groups:
        for array in (
            group.coloring_stack,
            group.sample_variances,
            group.doppler_filter,
        ):
            if array is not None:
                array.flags.writeable = False
        for decomposition in group.decompositions:
            decomposition.coloring_matrix.flags.writeable = False
            decomposition.effective_covariance.flags.writeable = False
    return resident


def _resident_bytes(resident: _ResidentPlan) -> int:
    """Bytes the plan's arrays keep resident, deduplicated by identity.

    Shared arrays (a decomposition reused across entries, a filter shared
    between groups) count once — the same sharing the artifact format
    deduplicates on disk.
    """
    seen = set()
    total = 0

    def add(array: Optional[np.ndarray]) -> None:
        nonlocal total
        if array is None or id(array) in seen:
            return
        seen.add(id(array))
        total += array.nbytes

    for group in resident.groups:
        add(group.coloring_stack)
        add(group.sample_variances)
        add(group.doppler_filter)
        for decomposition in group.decompositions:
            add(decomposition.coloring_matrix)
            add(decomposition.effective_covariance)
            add(decomposition.requested_covariance)
    return total


def _rebind(
    resident: _ResidentPlan,
    plan: "SimulationPlan",
    elapsed: float,
    *,
    from_disk: bool,
) -> Optional["CompiledPlan"]:
    """Bind a resident plan to the caller's plan object (either tier).

    Groups are copied structurally — a ``dataclasses.replace`` per group
    swaps in the caller's entries (seeds, labels) and Doppler specs — while
    every numeric array is shared by reference.  Returns ``None`` when the
    resident plan does not fit ``plan`` (a key collision or a layout bug),
    which the cache treats as a miss.
    """
    from .compile import CompiledPlan

    if resident.report.n_entries != plan.n_entries:
        return None
    entries = plan.entries
    groups = []
    for group in resident.groups:
        group_entries = tuple(entries[i] for i in group.indices)
        doppler = group_entries[0].doppler
        if (doppler is None) != (group.doppler_filter is None):
            return None
        fading = group_entries[0].fading
        if (None if fading is None else fading.family) != group.fading_family:
            return None
        groups.append(
            dataclasses.replace(group, entries=group_entries, doppler=doppler)
        )
    report = dataclasses.replace(
        resident.report,
        compile_seconds=elapsed,
        plan_cache_hits=1,
        plan_memory_hits=int(not from_disk),
    )
    return CompiledPlan(plan=plan, groups=tuple(groups), report=report)


class CompiledPlanCache(TieredCache[_ResidentPlan]):
    """Two-tier cache of whole compiled plans (the executor-level cache).

    A byte-bounded in-memory LRU above the ``plans/`` disk namespace.
    Lookups probe memory first: a memory hit re-binds the resident groups
    to the caller's plan with zero disk I/O and zero array copies (only
    the per-call seed/label re-bind); a memory miss falls through to the
    disk tier, and a disk hit is promoted into memory so the load is paid
    once per process.  A cache built without a ``cache_dir`` is a no-op:
    lookups miss silently — before hashing the plan — and stores are
    dropped.

    Parameters
    ----------
    cache_dir:
        Root of the persistent cache; artifacts live under
        ``<cache_dir>/plans/<key>.npz``.  Fixed for the cache's lifetime;
        ``None`` (default) builds the detached no-op.
    disk_max_bytes:
        LRU byte bound of the ``plans/`` namespace.
    """

    _store: ArtifactStore

    def __init__(
        self,
        cache_dir: Union[None, str, Path] = None,
        *,
        disk_max_bytes: int = DEFAULT_DISK_MAX_BYTES,
    ) -> None:
        super().__init__(
            freeze=_freeze_plan,
            size_of=_resident_bytes,
            memory_bound=0 if cache_dir is None else DEFAULT_MEMORY_MAX_BYTES,
            store=ArtifactStore(
                "plans",
                dump=_dump_plan,
                load=_load_plan,
                cache_dir=cache_dir,
                format_version=_DISK_FORMAT_VERSION,
                max_bytes=disk_max_bytes,
            ),
        )

    @property
    def cache_dir(self) -> Optional[Path]:
        """Root directory of the disk tier (``None`` when memory-only)."""
        return self._store.cache_dir

    @property
    def disk_max_bytes(self) -> int:
        """Byte bound of the disk tier."""
        return self._store.max_bytes

    @property
    def artifact_store(self) -> ArtifactStore:
        """The :class:`ArtifactStore` namespace backing the disk tier."""
        return self._store

    def clear_disk(self) -> int:
        """Remove every file of the disk tier (``.tmp`` and quarantine
        leftovers included); returns the number of entries removed."""
        return self._store.clear()

    def disk_usage(self) -> Tuple[int, int]:
        """``(n_files, total_bytes)`` of the disk tier (``(0, 0)`` if none)."""
        return self._store.usage()

    def lookup(self, plan: "SimulationPlan", key: str) -> Optional["CompiledPlan"]:
        """Serve the compiled form of ``plan`` under its ``key``, or ``None``
        (a miss).

        ``key`` is :func:`compiled_plan_cache_key` of ``plan``;
        :func:`repro.engine.compile.compile_plan`
        computes it once per compile.  A detached cache returns ``None``
        immediately.  Tiers are probed memory-first; either kind of hit is
        re-bound to the caller's ``plan`` (seeds and labels come from it),
        records ``plan_cache_hits=1`` (plus ``plan_memory_hits=1`` for the
        memory tier) with ``compile_seconds`` measuring the serve, and is
        bit-identical to a fresh compilation.  A disk hit is promoted into
        the memory tier.
        """
        if not self.enabled:
            return None
        start = time.perf_counter()
        return self._lookup(
            key,
            lambda resident, from_disk: _rebind(
                resident, plan, time.perf_counter() - start, from_disk=from_disk
            ),
        )

    def lookup_memory(
        self, plan: "SimulationPlan", key: str
    ) -> Optional["CompiledPlan"]:
        """Serve ``plan`` from the memory tier alone under its already
        computed ``key``; a hit is counted, a miss is not.

        For a compile that counted its :meth:`lookup` miss and then became
        the in-flight leader: a leader that finished in between has put the
        plan in memory (see :func:`repro.engine.compile.compile_plan`).
        """
        start = time.perf_counter()
        return self._lookup_memory(
            key,
            lambda resident, from_disk: _rebind(
                resident, plan, time.perf_counter() - start, from_disk=from_disk
            ),
        )

    def put(self, compiled: "CompiledPlan", key: str) -> bool:
        """Store one compiled plan in both tiers under its ``key`` (as for
        :meth:`lookup`); ``True`` if disk-written.

        Idempotent per key (the store remembers persisted and unwritable
        keys; the memory tier keeps its first insert), so compiling the
        same plan repeatedly serializes it once.
        """
        if not self.enabled:
            return False
        return self._put(key, _resident_from_compiled(compiled))[1]
