"""Cache of Young–Beaulieu Doppler filters.

Building the Eq. (21) filter ``F[k]`` is cheap next to an ``O(N^3)``
decomposition, but it is pure overhead to repeat: the filter depends only on
``(M, f_m)`` and its Eq. (19) output variance additionally on
``sigma_orig^2``, and real workloads reuse a handful of keys across
thousands of scenarios.  :class:`DopplerFilterCache` keeps one build per
key, so every :func:`repro.engine.compile.compile_plan` pass of one session
(:class:`repro.engine.SimulationEngine`) shares one build per unique
``(M, f_m, sigma_orig^2)``.  Each session owns its cache; there is no
process-wide instance.

The cache is the shared :class:`repro.engine.tiered.TieredCache` without a
disk tier: a memory LRU bounded to :data:`FILTER_MEMORY_MAX_BYTES` of
coefficients (so client-chosen Doppler frequencies cannot grow it without
bound).  A build takes tens of microseconds, less than reading one back
from disk, so repeated processes rebuild filters or load them inside a
whole compiled plan from the ``plans/`` namespace.  Cached coefficient
arrays are frozen read-only — they are shared across compiles — and a
cache hit is bit-identical to a fresh
:func:`repro.channels.doppler.young_beaulieu_filter` build.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

from .tiered import TieredCache

__all__ = [
    "FILTER_MEMORY_MAX_BYTES",
    "DopplerFilterCache",
]

#: Byte bound of the filter memory tier.  Fixed, not a parameter: every
#: client-chosen ``f_m`` of a served request adds one filter, so the tier
#: must stay bounded whatever the input.  64 MiB holds about 2,000 filters
#: at ``M = 4096``.
FILTER_MEMORY_MAX_BYTES = 64 * 1024 * 1024

#: A filter key: ``(M, f_m, sigma_orig^2)``, matching
#: :attr:`repro.engine.plan.DopplerSpec.filter_key`.
FilterKey = Tuple[int, float, float]


def _key_hash(key: FilterKey) -> str:
    """Cache key of a filter key (exact float reprs, no rounding)."""
    n_points, normalized_doppler, input_variance = key
    token = "|".join(
        (
            repr(int(n_points)),
            repr(float(normalized_doppler)),
            repr(float(input_variance)),
        )
    )
    return hashlib.sha256(token.encode("utf8")).hexdigest()


def _freeze_filter(coefficients: np.ndarray) -> np.ndarray:
    """Coefficient arrays are shared across compiles."""
    coefficients.flags.writeable = False
    return coefficients


def _filter_nbytes(coefficients: np.ndarray) -> int:
    return int(coefficients.nbytes)


class DopplerFilterCache(TieredCache[np.ndarray]):
    """Thread-safe cache of Young–Beaulieu filter coefficients.

    A byte-bounded memory LRU (:data:`FILTER_MEMORY_MAX_BYTES`).
    """

    def __init__(self) -> None:
        super().__init__(
            freeze=_freeze_filter,
            size_of=_filter_nbytes,
            memory_bound=FILTER_MEMORY_MAX_BYTES,
        )

    def get(
        self,
        n_points: int,
        normalized_doppler: float,
        input_variance_per_dim: float = 0.5,
    ) -> Tuple[np.ndarray, float, bool]:
        """Return ``(coefficients, output_variance, was_cached)`` for a key.

        On a miss the filter is built with
        :func:`repro.channels.doppler.young_beaulieu_filter` and stored
        (frozen read-only).  ``was_cached`` reports whether the cache served
        the coefficients without building, which is how the compile
        report's filter-reuse counters distinguish builds from shared-cache
        hits.  The Eq. (19) output variance is recomputed from the
        coefficients on every request (it is a cheap reduction).
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

