"""Process-wide + on-disk cache of Young–Beaulieu Doppler filters.

Building the Eq. (21) filter ``F[k]`` is cheap next to an ``O(N^3)``
decomposition, but it is pure overhead to repeat: the filter depends only on
``(M, f_m)`` and its Eq. (19) output variance additionally on
``sigma_orig^2``, and real workloads reuse a handful of keys across
thousands of scenarios.  PR 3 memoized the build *per compile pass*;
:class:`DopplerFilterCache` promotes that memo to a process-wide cache with
an optional disk tier under the same ``cache_dir`` as the decomposition
spill, so:

* every :func:`repro.engine.compile.compile_plan` pass in a process shares
  one build per unique ``(M, f_m, sigma_orig^2)``;
* every :class:`repro.core.realtime.RealTimeRayleighGenerator` constructed
  for the same Doppler settings shares the same coefficients;
* repeated *processes* (CLI sweeps with ``--cache-dir``, CI phases) load the
  coefficients from ``<cache_dir>/filters/*.npz`` instead of rebuilding.

Both tiers are the shared :class:`repro.engine.tiered.TieredCache`: a
memory LRU bounded to :data:`FILTER_MEMORY_MAX_BYTES` of coefficients (so
client-chosen Doppler frequencies cannot grow it without bound) over the
``filters/`` namespace of the unified
:class:`repro.engine.store.ArtifactStore`; this module only defines the key
and what a filter looks like on disk (a single coefficient array).  Cached
coefficient arrays are frozen read-only — they are shared across compiles
and generators.  A cache hit is bit-identical to a fresh
:func:`repro.channels.doppler.young_beaulieu_filter` build: the disk
round-trip stores the raw float64 binary, and the output variance is
recomputed from the coefficients on every request rather than stored.  A
corrupt or truncated file is a miss, never an error.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from .tiered import TieredCache, TierStats, process_default

__all__ = [
    "FILTER_MEMORY_MAX_BYTES",
    "FilterCacheStats",
    "DopplerFilterCache",
    "default_filter_cache",
]

#: On-disk payload-layout version (bumped in PR 5: store-envelope format).
_DISK_FORMAT_VERSION = 2

#: Byte bound of the filter memory tier.  Fixed, not a parameter: every
#: client-chosen ``f_m`` of a served request adds one filter, so the tier
#: must stay bounded whatever the input.  64 MiB holds about 2,000 filters
#: at ``M = 4096``.
FILTER_MEMORY_MAX_BYTES = 64 * 1024 * 1024

#: A filter key: ``(M, f_m, sigma_orig^2)``, matching
#: :attr:`repro.engine.plan.DopplerSpec.filter_key`.
FilterKey = Tuple[int, float, float]

#: Snapshot type of :attr:`DopplerFilterCache.stats` (the shared
#: :class:`~repro.engine.tiered.TierStats`).
FilterCacheStats = TierStats


def _key_hash(key: FilterKey) -> str:
    """File-name hash of a filter key (exact float reprs, no rounding)."""
    n_points, normalized_doppler, input_variance = key
    token = "|".join(
        (
            repr(int(n_points)),
            repr(float(normalized_doppler)),
            repr(float(input_variance)),
        )
    )
    return hashlib.sha256(token.encode("utf8")).hexdigest()


def _dump_filter(
    coefficients: np.ndarray,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Store payload of one filter: the raw coefficient array."""
    return {"coefficients": np.ascontiguousarray(coefficients)}, {}


def _load_filter(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> np.ndarray:
    """Rebuild a filter from digest-verified store payload."""
    return arrays["coefficients"]


def _freeze_filter(coefficients: np.ndarray) -> np.ndarray:
    """Coefficient arrays are shared across compiles and generators."""
    coefficients.flags.writeable = False
    return coefficients


def _filter_nbytes(coefficients: np.ndarray) -> int:
    return int(coefficients.nbytes)


class DopplerFilterCache(TieredCache[np.ndarray]):
    """Thread-safe cache of Young–Beaulieu filter coefficients.

    A byte-bounded memory LRU (:data:`FILTER_MEMORY_MAX_BYTES`) over the
    ``filters/`` disk namespace, which lives next to the decomposition
    spill, so one ``cache_dir`` (CLI ``--cache-dir``, env
    ``REPRO_CACHE_DIR``, or ``Simulator(cache_dir=...)``) configures every
    artifact cache at once.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent disk tier, or ``None`` (default) for a
        memory-only cache.  Entries live as ``<cache_dir>/filters/<hash>.npz``.
    """

    def __init__(self, cache_dir: Union[None, str, Path] = None) -> None:
        super().__init__(
            "filters",
            dump=_dump_filter,
            load=_load_filter,
            freeze=_freeze_filter,
            size_of=_filter_nbytes,
            memory_bound=FILTER_MEMORY_MAX_BYTES,
            format_version=_DISK_FORMAT_VERSION,
            cache_dir=cache_dir,
        )

    def get(
        self,
        n_points: int,
        normalized_doppler: float,
        input_variance_per_dim: float = 0.5,
    ) -> Tuple[np.ndarray, float, bool]:
        """Return ``(coefficients, output_variance, was_cached)`` for a key.

        On a miss the filter is built with
        :func:`repro.channels.doppler.young_beaulieu_filter`, stored in
        memory (frozen read-only) and — when a ``cache_dir`` is configured —
        spilled to disk.  ``was_cached`` reports whether any tier served the
        coefficients without building, which is how the compile report's
        filter-reuse counters distinguish builds from shared-cache hits.

        The Eq. (19) output variance is always recomputed from the
        coefficients (it is a cheap reduction), so a tampered disk entry can
        never smuggle in an inconsistent variance.
        """
        from ..channels.doppler import filter_output_variance, young_beaulieu_filter

        key: FilterKey = (
            int(n_points),
            float(normalized_doppler),
            float(input_variance_per_dim),
        )
        digest = _key_hash(key)
        coefficients = self._lookup(digest)
        was_cached = coefficients is not None
        if coefficients is None:
            # Validation may raise; concurrent builders of one key produce
            # identical bytes, and the first insert is what both hand out.
            coefficients, _ = self._put(digest, young_beaulieu_filter(key[0], key[1]))
        return coefficients, filter_output_variance(coefficients, key[2]), was_cached


def default_filter_cache() -> DopplerFilterCache:
    """The process-wide Young–Beaulieu filter cache.

    Shared by every :func:`repro.engine.compile.compile_plan` pass and every
    :class:`repro.core.realtime.RealTimeRayleighGenerator` that is not given
    an explicit cache, so each unique ``(M, f_m, sigma_orig^2)`` is built
    once per process — and, with ``REPRO_CACHE_DIR`` / ``--cache-dir``, once
    ever.
    """
    return process_default(DopplerFilterCache)
