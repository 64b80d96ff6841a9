"""The simulation engine facade: plan → compile → execute in one object.

:class:`SimulationEngine` binds its caches (decomposition, Doppler filter
and compiled plan, each owned by the engine unless passed in) and numeric
defaults to the compile/execute pipeline, so callers can hold one engine
for a whole study and reuse decompositions across runs.  It is the seam behind
:class:`repro.api.Simulator`, the package's one front door.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from pathlib import Path

from ..config import DEFAULTS, NumericDefaults
from ..exceptions import SpecificationError
from .backends import BackendSpec, LinalgBackend, resolve_backend
from .cache import DecompositionCache
from .compile import CompiledPlan, compile_plan
from .execute import check_stream_arguments, execute_plan, stream_plan
from .filters import DopplerFilterCache
from .plan import SimulationPlan
from .plancache import CompiledPlanCache
from .result import BatchResult
from .tiered import TierStats

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Batched plan → compile → execute pipeline with decomposition caching.

    Parameters
    ----------
    cache:
        Decomposition cache consulted during compilation.  ``None`` builds
        one this engine owns; pass ``DecompositionCache(maxsize=0)`` for a
        cache-less engine.
    defaults:
        Numeric tolerance bundle for the decomposition pipeline.
    backend:
        Linalg backend for the stacked decompositions and the coloring
        multiply — a registered name (``"numpy"``, ``"scipy"``), a :class:`repro.engine.backends.LinalgBackend` instance,
        or ``None`` for the numpy default.
    filter_cache:
        Young–Beaulieu filter cache for Doppler-mode compilation.  ``None``
        builds one this engine owns.
    plan_cache:
        Compiled-plan cache (the executor-level tier of the artifact
        store): an in-memory LRU tier over a content-addressed disk tier,
        so repeated ``run(plan)`` on a warm engine re-binds without disk
        I/O.  ``None`` builds a private detached
        :class:`repro.engine.plancache.CompiledPlanCache` (a no-op).
    cache_dir:
        Convenience: build a *private* persistent
        :class:`repro.engine.plancache.CompiledPlanCache` rooted at this
        directory (its ``plans/`` namespace).  Only valid when every
        explicit cache argument is ``None`` — pass
        ``plan_cache=CompiledPlanCache(cache_dir)`` yourself to mix.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.engine import SimulationEngine, SimulationPlan
    >>> engine = SimulationEngine()
    >>> K = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    >>> plan = SimulationPlan.from_specs([K, 2 * K, 3 * K], seed=7)
    >>> result = engine.run(plan, n_samples=500)
    >>> [block.samples.shape for block in result.blocks]
    [(2, 500), (2, 500), (2, 500)]
    """

    def __init__(
        self,
        *,
        cache: Optional[DecompositionCache] = None,
        defaults: NumericDefaults = DEFAULTS,
        backend: BackendSpec = None,
        filter_cache: Optional[DopplerFilterCache] = None,
        plan_cache: Optional[CompiledPlanCache] = None,
        cache_dir: Union[None, str, Path] = None,
    ) -> None:
        if cache_dir is not None:
            if cache is not None or filter_cache is not None or plan_cache is not None:
                raise SpecificationError(
                    "cache_dir builds private caches and conflicts with an "
                    "explicit cache/filter_cache/plan_cache; pass "
                    "plan_cache=CompiledPlanCache(cache_dir) yourself instead"
                )
            plan_cache = CompiledPlanCache(cache_dir)
        self._cache = DecompositionCache() if cache is None else cache
        self._filter_cache = (
            DopplerFilterCache() if filter_cache is None else filter_cache
        )
        self._plan_cache = CompiledPlanCache() if plan_cache is None else plan_cache
        self._defaults = defaults
        self._backend = resolve_backend(backend)

    @property
    def cache(self) -> DecompositionCache:
        """The decomposition cache this engine compiles against."""
        return self._cache

    @property
    def filter_cache(self) -> DopplerFilterCache:
        """The Young–Beaulieu filter cache this engine compiles against."""
        return self._filter_cache

    @property
    def plan_cache(self) -> CompiledPlanCache:
        """The two-tier compiled-plan cache this engine compiles against."""
        return self._plan_cache

    @property
    def defaults(self) -> NumericDefaults:
        """The numeric tolerance bundle this engine compiles with."""
        return self._defaults

    @property
    def backend(self) -> LinalgBackend:
        """The linalg backend this engine compiles and executes on."""
        return self._backend

    @property
    def cache_stats(self) -> TierStats:
        """Snapshot of the cache's hit/miss/eviction counters."""
        return self._cache.stats

    def compile(self, plan: SimulationPlan) -> CompiledPlan:
        """Compile a plan (stacked decompositions, cache dedup) for reuse."""
        return compile_plan(
            plan,
            cache=self._cache,
            defaults=self._defaults,
            backend=self._backend,
            filter_cache=self._filter_cache,
            plan_cache=self._plan_cache,
        )

    def _ensure_compiled(
        self, plan: Union[SimulationPlan, CompiledPlan]
    ) -> CompiledPlan:
        if isinstance(plan, CompiledPlan):
            return plan
        return self.compile(plan)

    def run(
        self,
        plan: Union[SimulationPlan, CompiledPlan],
        n_samples: int,
        *,
        measure_allocation: bool = False,
    ) -> BatchResult:
        """Compile (if necessary) and execute a plan in one call.

        With ``measure_allocation=True`` the execute pass is traced with
        :mod:`tracemalloc` and its peak allocation is reported in
        :attr:`repro.engine.result.BatchResult.peak_alloc_bytes`.
        """
        return execute_plan(
            self._ensure_compiled(plan),
            n_samples,
            measure_allocation=measure_allocation,
        )

    def stream(
        self,
        plan: Union[SimulationPlan, CompiledPlan],
        *,
        block_size: int,
        n_blocks: int,
    ) -> Iterator[BatchResult]:
        """Compile (if necessary) and stream fixed-size batched blocks.

        Bad ``block_size``/``n_blocks`` raise before anything compiles.
        """
        check_stream_arguments(block_size, n_blocks)
        return stream_plan(
            self._ensure_compiled(plan), block_size=block_size, n_blocks=n_blocks
        )
