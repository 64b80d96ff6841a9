"""Decomposition cache: content-addressed reuse of coloring decompositions.

Planning a correlated-fading simulation is dominated by the ``O(N^3)``
eigendecomposition (or Cholesky factorization) of the covariance matrix —
work that parameter sweeps repeat needlessly whenever two scenarios share a
covariance matrix (e.g. a Doppler sweep over a fixed antenna geometry, or a
Monte-Carlo grid that varies only seeds).  :class:`DecompositionCache` is a
thread-safe LRU cache of :class:`repro.linalg.ColoringDecomposition` objects
keyed by a *content hash* of the covariance matrix together with every
parameter that influences the decomposition (coloring method, PSD-forcing
method, epsilon, numeric tolerances).  Hit/miss/eviction counters are exposed
for the benchmark harness.

The two tiers — an in-memory LRU of ``maxsize`` entries and an optional
**disk tier** (``cache_dir``) that spills entries as ``.npz`` files so
repeated *processes* skip recomputation too — are the shared
:class:`repro.engine.tiered.TieredCache` over the ``decompositions/``
namespace of the unified :class:`repro.engine.store.ArtifactStore`.  This
module only says how a decomposition is keyed and what it looks like on
disk (the dump/load pair below); a corrupt or truncated file is a *miss*,
never an error.

The cache stores the exact object the single-matrix
:func:`repro.core.coloring.compute_coloring` pipeline produces, and the disk
round-trip preserves every array bit-for-bit (``.npz`` stores the raw float
binary), so a cache hit — memory or disk — is bit-identical to a fresh
computation: generation results never depend on the cache state.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..config import DEFAULTS, NumericDefaults
from ..linalg import ColoringDecomposition
from .store import DEFAULT_DISK_MAX_BYTES
from .tiered import TieredCache, TierStats, process_default

__all__ = [
    "decomposition_cache_key",
    "CacheStats",
    "DecompositionCache",
    "default_decomposition_cache",
    "DEFAULT_DISK_MAX_BYTES",
]

#: On-disk payload-layout version (bumped in PR 5: the store envelope
#: replaced the ad-hoc per-cache format, so pre-store files read as misses
#: instead of garbage).
_DISK_FORMAT_VERSION = 2


def decomposition_cache_key(
    matrix: np.ndarray,
    *,
    method: str = "eigen",
    psd_method: str = "clip",
    epsilon: float = 1e-6,
    defaults: NumericDefaults = DEFAULTS,
    cache_token: str = "numpy",
) -> str:
    """Content hash identifying one coloring-decomposition computation.

    Two calls receive the same key exactly when they would produce the same
    decomposition: the covariance matrix bytes (shape, dtype and C-order
    contents) and every algorithm parameter are folded into a SHA-256 digest.
    Floating-point matrices that differ in even one ULP hash differently —
    the cache never equates "close" matrices.

    ``cache_token`` namespaces the key by the linalg backend that computes
    the decomposition (:attr:`repro.engine.backends.LinalgBackend.cache_token`).
    Backends that are bit-identical to numpy share the default ``"numpy"``
    token — their decompositions are interchangeable bytes — while every
    other backend hashes under its own token so, e.g., a GPU decomposition
    is never served to a numpy run.  The same namespacing carries over to
    the disk tier: the key is the file name, so on-disk entries are
    backend-namespaced too.
    """
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    hasher = hashlib.sha256()
    hasher.update(repr((arr.shape, arr.dtype.str)).encode("utf8"))
    hasher.update(arr.tobytes())
    hasher.update(
        "|".join(
            (
                cache_token,
                method,
                psd_method,
                repr(float(epsilon)),
                repr(defaults.eig_clip_tol),
                repr(defaults.psd_tol),
                repr(defaults.hermitian_atol),
                repr(defaults.hermitian_rtol),
            )
        ).encode("utf8")
    )
    return hasher.hexdigest()


#: Snapshot type of :attr:`DecompositionCache.stats` (the shared
#: :class:`~repro.engine.tiered.TierStats`).
CacheStats = TierStats


def _freeze(decomposition: ColoringDecomposition) -> ColoringDecomposition:
    """Make the pipeline-computed arrays of a decomposition read-only.

    Cached decompositions are shared between every generator built from the
    same matrix, and an in-place mutation through one of them would silently
    corrupt all the others.  ``requested_covariance`` may alias the caller's
    own matrix, so it is left untouched.
    """
    decomposition.coloring_matrix.flags.writeable = False
    decomposition.effective_covariance.flags.writeable = False
    return decomposition


def _dump_decomposition(
    decomposition: ColoringDecomposition,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Store payload of one decomposition: three arrays + diagnostics meta.

    A non-JSON-serializable ``extra`` dict makes the store's envelope
    serialization fail, which the store treats as "keep this entry
    memory-only" — exotic strategy diagnostics never fail the run.
    """
    arrays = {
        "coloring_matrix": np.ascontiguousarray(decomposition.coloring_matrix),
        "effective_covariance": np.ascontiguousarray(
            decomposition.effective_covariance
        ),
        "requested_covariance": np.ascontiguousarray(
            decomposition.requested_covariance
        ),
    }
    meta = {
        "method": decomposition.method,
        "was_repaired": bool(decomposition.was_repaired),
        "negative_eigenvalue_count": int(decomposition.negative_eigenvalue_count),
        "min_eigenvalue": float(decomposition.min_eigenvalue),
        "extra": decomposition.extra,
    }
    return arrays, meta


def _load_decomposition(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> ColoringDecomposition:
    """Rebuild a decomposition from digest-verified store payload."""
    return ColoringDecomposition(
        coloring_matrix=arrays["coloring_matrix"],
        effective_covariance=arrays["effective_covariance"],
        requested_covariance=arrays["requested_covariance"],
        method=str(meta["method"]),
        was_repaired=bool(meta["was_repaired"]),
        negative_eigenvalue_count=int(meta["negative_eigenvalue_count"]),
        min_eigenvalue=float(meta["min_eigenvalue"]),
        extra=dict(meta.get("extra") or {}),
    )


class DecompositionCache(TieredCache[ColoringDecomposition]):
    """Thread-safe two-tier (memory LRU + optional disk) decomposition cache.

    Parameters
    ----------
    maxsize:
        Maximum number of decompositions retained *in memory* (each weighs
        1 against the :class:`~repro.engine.tiered.TieredCache` bound).
        ``0`` disables the memory tier (useful as an explicit "no caching"
        baseline in benchmarks — and, combined with ``cache_dir``, yields a
        disk-only cache).
    cache_dir:
        Directory of the persistent disk tier, or ``None`` (default) for a
        memory-only cache.  Entries are spilled as
        ``<cache_dir>/decompositions/<key>.npz`` through the unified
        :class:`repro.engine.store.ArtifactStore`; multiple processes may
        share one directory (writes are atomic, corrupt files read as
        misses).
    disk_max_bytes:
        LRU byte bound of the disk tier (least-recently-used files are
        removed once the total exceeds it).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.engine import DecompositionCache
    >>> cache = DecompositionCache(maxsize=8)
    >>> K = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    >>> first = cache.coloring_for(K)
    >>> second = cache.coloring_for(K)   # served from the cache
    >>> second is first
    True
    >>> cache.stats.hits, cache.stats.misses
    (1, 1)
    """

    def __init__(
        self,
        maxsize: int = 256,
        *,
        cache_dir: Union[None, str, Path] = None,
        disk_max_bytes: int = DEFAULT_DISK_MAX_BYTES,
    ) -> None:
        super().__init__(
            "decompositions",
            dump=_dump_decomposition,
            load=_load_decomposition,
            freeze=_freeze,
            memory_bound=maxsize,
            format_version=_DISK_FORMAT_VERSION,
            cache_dir=cache_dir,
            disk_max_bytes=disk_max_bytes,
        )

    @property
    def maxsize(self) -> int:
        """Maximum number of decompositions stored in memory."""
        return self.memory_bound

    def lookup(self, key: str) -> Optional[ColoringDecomposition]:
        """Return the cached decomposition for ``key`` or ``None`` (a miss)."""
        return self._lookup(key)

    def store(self, key: str, decomposition: ColoringDecomposition) -> None:
        """Freeze and insert a decomposition in every configured tier.

        The arrays the pipeline computes itself are frozen read-only even
        when no tier keeps the entry, so callers receive the same immutable
        object a cache hit would hand out.
        """
        self._put(key, decomposition)

    def coloring_for(
        self,
        matrix: np.ndarray,
        *,
        method: str = "eigen",
        psd_method: str = "clip",
        epsilon: float = 1e-6,
        defaults: NumericDefaults = DEFAULTS,
    ) -> ColoringDecomposition:
        """Return the coloring decomposition for ``matrix``, computing on miss.

        This is the single-matrix entry point used by
        :class:`repro.core.generator.RayleighFadingGenerator`; the batched
        compiler uses :meth:`lookup`/:meth:`store` directly so it can batch
        the misses into one stacked decomposition.
        """
        from ..core.coloring import compute_coloring

        key = decomposition_cache_key(
            matrix, method=method, psd_method=psd_method, epsilon=epsilon, defaults=defaults
        )
        cached = self.lookup(key)
        if cached is not None:
            return cached
        decomposition = compute_coloring(
            matrix, method=method, psd_method=psd_method, epsilon=epsilon, defaults=defaults
        )
        self.store(key, decomposition)
        return decomposition


def default_decomposition_cache() -> DecompositionCache:
    """The process-wide decomposition cache.

    Shared by every :class:`repro.api.Simulator` built without an explicit
    cache and by :class:`repro.core.generator.RayleighFadingGenerator` instances that are
    not given an explicit cache, so sweeps that construct many generators
    over repeated covariance matrices decompose each matrix once.  When the
    ``REPRO_CACHE_DIR`` environment variable is set at first use, the cache
    is created with that persistent disk tier attached (the CLI's
    ``--cache-dir`` attaches one explicitly via :meth:`DecompositionCache.set_cache_dir`).
    """
    return process_default(DecompositionCache)
