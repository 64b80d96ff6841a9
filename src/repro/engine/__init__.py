"""Batched simulation engine: plan → compile → execute.

The classic API generates one covariance specification at a time; every
:class:`repro.core.generator.RayleighFadingGenerator` eigendecomposes its own
matrix and experiments loop scenarios serially in Python.  This subpackage
turns generation into a three-stage pipeline that scales to large parameter
sweeps and Monte-Carlo grids:

:mod:`repro.engine.plan`
    :class:`SimulationPlan` collects many :class:`~repro.core.covariance.CovarianceSpec`
    entries (each with its own seed and algorithm options) before any linear
    algebra runs — a sweep, a heterogeneous mix, or a Monte-Carlo replica
    ensemble of one spec.  :func:`partition_counts` balances a plan's
    shards.
:mod:`repro.engine.compile`
    :func:`compile_plan` groups same-shape entries, deduplicates covariance
    matrices by content hash against the LRU
    :class:`~repro.engine.cache.DecompositionCache`, and decomposes the
    misses with *stacked* ``np.linalg.eigh`` / ``cholesky`` calls
    (:func:`repro.core.coloring.compute_coloring_batch`).
:mod:`repro.engine.execute`
    :func:`execute_plan` draws per-entry seeded white samples and colors each
    group with one stacked ``np.matmul``; :func:`stream_plan` iterates long
    records in fixed-size blocks with bounded memory.  Doppler-mode entries
    (a :class:`DopplerSpec` on the plan entry) draw Young–Beaulieu IDFT
    branch streams instead — all branches of all entries of a group through
    one stacked ``np.fft.ifft`` — and normalize the coloring by the
    Eq. (19) filter-output variance.
:mod:`repro.engine.cache` / :mod:`repro.engine.filters` /
:mod:`repro.engine.plancache` / :mod:`repro.engine.store`
    The artifact caches, each owned by the session that builds it.  The
    content-hashed LRU :class:`DecompositionCache` and the
    :class:`DopplerFilterCache` of Young–Beaulieu filters live in memory;
    the executor-level :class:`CompiledPlanCache` also persists *whole*
    compiled plans under the ``cache_dir`` it is built with through
    :class:`ArtifactStore` (atomic writes, digest verification,
    quarantine-on-corrupt, LRU byte-bounded eviction), so a later process
    skips ``eigh``/``cholesky`` and filter construction.  A disk hit is
    bit-identical to a fresh computation and a corrupt file is a miss,
    never an error.

**Equivalence guarantee.**  For the same per-entry seeds, batched execution
is bit-identical to looping single-spec generators — the single-spec path is
literally the ``B = 1`` case (:meth:`repro.api.Simulator.envelopes` runs a
one-entry plan).  The guarantee holds because numpy's stacked
``eigh``/``cholesky``/``matmul`` gufuncs run the same LAPACK/BLAS routine per
slice, pocketfft transforms each row of a stacked IDFT exactly like a 1-D
IDFT of that row, and the white-sample streams are drawn per entry (per
branch, for Doppler entries) from the same seeds.  Doppler entries are
bit-identical to looping :class:`repro.core.realtime.RealTimeRayleighGenerator`.
"""

from .cache import DecompositionCache, decomposition_cache_key
from .filters import DopplerFilterCache
from .plan import (
    DopplerSpec,
    FadingSpec,
    PlanEntry,
    SimulationPlan,
    partition_counts,
)
from .plancache import CompiledPlanCache, compiled_plan_cache_key
from .store import ArtifactStore, StoreStats
from .tiered import TieredCache, TierStats
from .compile import CompiledGroup, CompiledPlan, CompileReport, compile_plan
from .execute import execute_plan, stream_plan
from .result import BatchResult
from .engine import SimulationEngine

__all__ = [
    "DecompositionCache",
    "decomposition_cache_key",
    "DopplerFilterCache",
    "ArtifactStore",
    "StoreStats",
    "TieredCache",
    "TierStats",
    "CompiledPlanCache",
    "compiled_plan_cache_key",
    "DopplerSpec",
    "FadingSpec",
    "PlanEntry",
    "SimulationPlan",
    "partition_counts",
    "CompiledGroup",
    "CompiledPlan",
    "CompileReport",
    "compile_plan",
    "execute_plan",
    "stream_plan",
    "BatchResult",
    "SimulationEngine",
]
