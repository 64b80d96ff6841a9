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

A cache belongs to whoever builds it: each
:class:`repro.engine.SimulationEngine` (and so each
:class:`repro.api.Simulator` session) builds its own unless one is passed
in, and there is no process-wide instance.

The cache is a memory LRU of ``maxsize`` entries — the shared
:class:`repro.engine.tiered.TieredCache` without a disk tier.  Repeated
*processes* skip recompilation through the compiled-plan cache's
``plans/`` namespace instead: at the paper's sizes an ``eigh`` costs less
than a verified disk load of its result (ROADMAP item 8).

The cache stores the decompositions the batched compiler computes, which
are bit-identical to what the single-matrix
:func:`repro.core.coloring.compute_coloring` pipeline produces, so a cache
hit is bit-identical to a fresh computation: generation results never
depend on the cache state.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from ..config import EIG_CLIP_TOL, HERMITIAN_ATOL, HERMITIAN_RTOL, PSD_TOL
from ..linalg import ColoringDecomposition
from .tiered import TieredCache

__all__ = [
    "decomposition_cache_key",
    "DecompositionCache",
]

#: The linalg token every key folds.  Keys have always hashed this
#: literal; it stays so they (and stored ``plans/`` artifacts) keep their
#: bytes.
LINALG_TOKEN = "numpy"

#: The numeric tolerances a decomposition depends on, in the order and
#: ``repr`` form every key folds them: editing one in :mod:`repro.config`
#: changes every key, so no stored compiled plan is served after it.
_TOLERANCE_TOKEN = "|".join(
    repr(tol) for tol in (EIG_CLIP_TOL, PSD_TOL, HERMITIAN_ATOL, HERMITIAN_RTOL)
)


def decomposition_cache_key(
    matrix: np.ndarray,
    *,
    method: str = "eigen",
    psd_method: str = "clip",
    epsilon: float = 1e-6,
) -> str:
    """Content hash identifying one coloring-decomposition computation.

    Two calls receive the same key exactly when they would produce the same
    decomposition: the covariance matrix bytes (shape, dtype and C-order
    contents) and every algorithm parameter are folded into a SHA-256 digest.
    Floating-point matrices that differ in even one ULP hash differently —
    the cache never equates "close" matrices.
    """
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    hasher = hashlib.sha256()
    hasher.update(repr((arr.shape, arr.dtype.str)).encode("utf8"))
    hasher.update(arr.tobytes())
    hasher.update(
        "|".join(
            (
                LINALG_TOKEN,
                method,
                psd_method,
                repr(float(epsilon)),
                _TOLERANCE_TOKEN,
            )
        ).encode("utf8")
    )
    return hasher.hexdigest()


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


class DecompositionCache(TieredCache[ColoringDecomposition]):
    """Thread-safe memory LRU of coloring decompositions.

    Parameters
    ----------
    maxsize:
        Maximum number of decompositions retained (each weighs 1 against
        the :class:`~repro.engine.tiered.TieredCache` bound).  ``0``
        disables caching (useful as an explicit "no caching" baseline in
        benchmarks).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.coloring import compute_coloring
    >>> from repro.engine import DecompositionCache, decomposition_cache_key
    >>> cache = DecompositionCache(maxsize=8)
    >>> K = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    >>> key = decomposition_cache_key(K)
    >>> cache.lookup(key) is None          # a miss: compute and store
    True
    >>> cache.store(key, compute_coloring(K))
    >>> cache.lookup(key) is not None      # served from the cache
    True
    >>> cache.stats.hits, cache.stats.misses
    (1, 1)
    """

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(freeze=_freeze, memory_bound=maxsize)

    @property
    def maxsize(self) -> int:
        """Maximum number of decompositions stored."""
        return self.memory_bound

    def lookup(self, key: str) -> Optional[ColoringDecomposition]:
        """Return the cached decomposition for ``key`` or ``None`` (a miss)."""
        return self._lookup(key)

    def store(self, key: str, decomposition: ColoringDecomposition) -> None:
        """Freeze and insert a decomposition.

        The arrays the pipeline computes itself are frozen read-only even
        when the cache keeps no entry, so callers receive the same immutable
        object a cache hit would hand out.
        """
        self._put(key, decomposition)
