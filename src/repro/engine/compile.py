"""Plan compilation: stacked decompositions with cache-aware deduplication.

Compiling a :class:`repro.engine.plan.SimulationPlan` turns its declarative
entries into ready-to-execute coloring matrices:

1. entries are grouped by ``(N, coloring_method, psd_method, epsilon)`` —
   plus ``(M, f_m, sigma_orig^2)`` for Doppler-mode entries and the fading
   model family ``(model, has_shadowing)`` for non-Rayleigh entries — so
   each group stacks into one ``(B, N, N)`` array and applies one stacked
   post-coloring transform;
2. across the whole plan, covariance matrices are deduplicated by content
   hash and each unique one is looked up once in the
   :class:`repro.engine.cache.DecompositionCache`;
3. the remaining *misses* are decomposed together by
   :func:`repro.core.coloring.compute_coloring_batch` — one stacked
   ``np.linalg.eigh`` / ``cholesky`` pass per decomposition signature
   ``(N, coloring_method, psd_method, epsilon)``, however many Doppler or
   fading groups the plan splits into (neither changes a decomposition) —
   and stored back in the cache;
4. per-entry coloring matrices are assembled into a ``(B, N, N)`` stack the
   executor multiplies white samples through;
5. Doppler groups additionally resolve the Young–Beaulieu filter ``F[k]``
   of Eq. (21) **once** per unique ``(M, f_m, sigma_orig^2)`` in the plan
   (the looped path builds ``N + 1`` filters per scenario) through the
   caller's :class:`repro.engine.filters.DopplerFilterCache` — so a key an
   earlier compile of the same session already built is served from that
   cache instead of rebuilt —
   record its Eq. (19) output variance, and set each entry's effective
   sample variance to that output variance (or 1.0 when the entry opts out
   of compensation).

Every decomposition is bit-identical to what the single-spec path computes,
so compiled execution reproduces a loop of
:class:`repro.core.generator.RayleighFadingGenerator` (or, for Doppler
entries, :class:`repro.core.realtime.RealTimeRayleighGenerator`) exactly.
The covariance decomposition does not depend on the Doppler mode or the
fading model, so a Doppler entry and a snapshot entry over the same matrix
share one decomposition and one cache entry (the cache key is Doppler- and
fading-agnostic).  A decomposition that fails raises its usual error type,
naming the plan entry (and its label) instead of a position in a stack.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from ..config import DEFAULTS, NumericDefaults
from ..exceptions import (
    CholeskyError,
    ColoringError,
    CovarianceError,
    DecompositionError,
)
from ..linalg import ColoringDecomposition
from .backends import BackendSpec, LinalgBackend, resolve_backend
from .cache import DecompositionCache
from .filters import DopplerFilterCache
from .plan import DopplerSpec, PlanEntry, SimulationPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .plancache import CompiledPlanCache

__all__ = ["CompileReport", "CompiledGroup", "CompiledPlan", "compile_plan"]


@dataclass(frozen=True)
class CompileReport:
    """Statistics of one compilation pass.

    Attributes
    ----------
    n_entries:
        Scenarios in the plan.
    n_groups:
        Same-shape/same-options groups formed.
    n_unique_matrices:
        Distinct covariance computations after content-hash deduplication
        across the whole plan: a matrix shared by entries of different
        groups (say a snapshot entry and a Doppler entry) counts once.
    cache_hits, cache_misses:
        Unique matrices served from / absent from the decomposition cache,
        also plan-wide: such a shared matrix is one lookup, so one hit or
        one miss, and a miss is decomposed once even with
        ``DecompositionCache(maxsize=0)``.
    compile_seconds:
        Wall-clock time of the compilation pass.
    doppler_filters_built:
        Distinct Young–Beaulieu filters this pass resolved (one per unique
        ``(M, f_m, sigma_orig^2)`` in the plan); 0 for snapshot-only plans.
        The looped path would build one per scenario *per branch*.  On a
        compiled-plan cache hit the value is restored from the artifact —
        it still counts the plan's unique filters, but none were
        constructed during this pass (``plan_cache_hits`` tells the two
        apart; ``summary()`` prints "restored" instead of "built").
    doppler_entries:
        Doppler-mode entries served by those filters — the looped path would
        have built ``N + 1`` filters for each of them.
    doppler_filter_cache_hits:
        How many of the ``doppler_filters_built`` keys were served by the
        session's filter cache instead of being constructed
        during this pass.
    plan_cache_hits:
        1 when this whole compilation was served from the compiled-plan
        cache (see :mod:`repro.engine.plancache`) — either tier — in which
        case no decomposition or filter lookups ran at all and
        ``compile_seconds`` measures the load/re-bind; 0 for a computed
        pass.  Merged parallel results sum the flag across workers.
    plan_memory_hits:
        1 when that compiled-plan hit was served by the in-memory tier —
        zero disk I/O, zero array copies, only the per-call seed/label
        re-bind; 0 when the hit loaded a disk artifact (or on a computed
        pass).  Always ``<= plan_cache_hits``.
    plan_inflight_hits:
        1 when this pass *coalesced* onto a concurrent compilation of the
        same key (the singleflight table of
        :class:`repro.engine.plancache.CompiledPlanCache`): the thread
        waited for the in-flight leader and was then served from the warm
        cache instead of compiling.  Implies ``plan_cache_hits == 1``.
    """

    n_entries: int
    n_groups: int
    n_unique_matrices: int
    cache_hits: int
    cache_misses: int
    compile_seconds: float
    doppler_filters_built: int = 0
    doppler_entries: int = 0
    doppler_filter_cache_hits: int = 0
    plan_cache_hits: int = 0
    plan_memory_hits: int = 0
    plan_inflight_hits: int = 0

    @property
    def deduplicated(self) -> int:
        """Entries that reused another entry's decomposition within the batch."""
        return self.n_entries - self.n_unique_matrices


@dataclass(frozen=True)
class CompiledGroup:
    """One batch of same-shape entries, ready to execute.

    Attributes
    ----------
    indices:
        Plan indices of the entries, in plan order.
    entries:
        The corresponding plan entries.
    coloring_stack:
        ``(B, N, N)`` stack of coloring matrices, one per entry.
    sample_variances:
        ``(B,)`` white-sample variances ``sigma_w^2`` per entry.  For
        Doppler groups these are the *effective* variances of the Section 5
        coloring step: the Eq. (19) filter-output variance, or 1.0 for
        entries with ``compensate_variance=False``.
    decompositions:
        Full per-entry decompositions (diagnostics: repairs, eigenvalues).
    doppler:
        Group Doppler parameters ``(M, f_m, sigma_orig^2)`` as a
        :class:`~repro.engine.plan.DopplerSpec`, or ``None`` for snapshot
        groups.  Per-entry compensation flags live on the entries.
    doppler_filter:
        The shared Young–Beaulieu filter ``F[k]`` (Doppler groups only).
    doppler_output_variance:
        The Eq. (19) output variance ``sigma_g^2`` of that filter.
    fading_family:
        The group's fading-model family ``(model, has_shadowing)``, or
        ``None`` for plain Rayleigh groups.  Grouping is uniform in the
        family (it is part of :attr:`PlanEntry.group_key`); per-entry shape
        parameters live on the entries, and the executor stacks them into
        broadcast columns once per execution state
        (:func:`repro.models.fading.build_fading_stacks`).
    """

    indices: Tuple[int, ...]
    entries: Tuple[PlanEntry, ...]
    coloring_stack: np.ndarray
    sample_variances: np.ndarray
    decompositions: Tuple[ColoringDecomposition, ...]
    doppler: Optional[DopplerSpec] = None
    doppler_filter: Optional[np.ndarray] = None
    doppler_output_variance: Optional[float] = None
    fading_family: Optional[Tuple[str, bool]] = None

    @property
    def batch_size(self) -> int:
        """Number of entries in this group."""
        return len(self.indices)

    @property
    def n_branches(self) -> int:
        """Number of correlated branches ``N`` shared by the group."""
        return int(self.coloring_stack.shape[1])

    @property
    def is_doppler(self) -> bool:
        """Whether this group runs the Section 5 real-time algorithm."""
        return self.doppler is not None


@dataclass(frozen=True)
class CompiledPlan:
    """A fully compiled plan: groups of stacked coloring matrices.

    The executor (:mod:`repro.engine.execute`) consumes this object; it can
    be executed many times (different sample counts, streaming blocks)
    without recompiling.  ``backend`` records the linalg backend the plan
    was compiled with; the executor colors samples through the same backend
    (``None`` means the numpy default).
    """

    plan: SimulationPlan
    groups: Tuple[CompiledGroup, ...]
    report: CompileReport
    backend: Optional[LinalgBackend] = None

    @property
    def n_entries(self) -> int:
        """Number of scenarios in the compiled plan."""
        return self.plan.n_entries

    def decomposition_for(self, plan_index: int) -> ColoringDecomposition:
        """The decomposition used for the entry at ``plan_index``."""
        for group in self.groups:
            if plan_index in group.indices:
                return group.decompositions[group.indices.index(plan_index)]
        raise IndexError(f"plan index {plan_index} out of range")


def compile_plan(
    plan: SimulationPlan,
    *,
    cache: Optional[DecompositionCache] = None,
    defaults: NumericDefaults = DEFAULTS,
    backend: BackendSpec = None,
    filter_cache: Optional["DopplerFilterCache"] = None,
    plan_cache: Optional["CompiledPlanCache"] = None,
) -> CompiledPlan:
    """Compile a plan into stacked, cached coloring decompositions.

    When a ``plan_cache`` built with a ``cache_dir`` is given, the whole
    pass is first looked up by the content hash of the ``(plan, backend
    namespace)`` pair: on a hit the full :class:`CompiledPlan` — coloring
    stacks, Doppler filters, per-entry variances — is served from memory or
    loads from one verified artifact with *zero* ``eigh``/``cholesky``/
    filter-build calls, bit-identical to a fresh compilation; on a miss the
    compiled result is stored for later compiles and processes.

    Parameters
    ----------
    plan:
        The simulation plan to compile.
    cache:
        Decomposition cache to consult and populate; ``None`` builds a
        fresh one for this call.  Pass ``DecompositionCache(maxsize=0)`` to
        disable reuse (e.g. for cold-path benchmarking).  Decompositions
        stay in memory; only whole compiled plans persist.
    defaults:
        Numeric tolerance bundle forwarded to the decomposition pipeline.
    backend:
        Linalg backend performing the stacked decompositions — a registered
        name, a :class:`repro.engine.backends.LinalgBackend` instance, or
        ``None`` for the numpy default.  Cache keys are namespaced by the
        backend's :attr:`~repro.engine.backends.LinalgBackend.cache_token`,
        so only backends bit-identical to numpy share cached
        decompositions.
    filter_cache:
        Young–Beaulieu filter cache for Doppler-mode entries; ``None``
        builds a fresh one for this call.
        The filter does not depend on the linalg backend (it is a closed-form
        coefficient vector), so filter entries are never backend-namespaced.
    plan_cache:
        Compiled-plan cache (the executor-level tier).  ``None``, like a
        detached :class:`repro.engine.plancache.CompiledPlanCache`,
        compiles without one.
    """
    from .plancache import compiled_plan_cache_key

    backend_obj = resolve_backend(backend)
    cache_token = backend_obj.cache_token
    if cache is None:
        cache = DecompositionCache()
    if filter_cache is None:
        filter_cache = DopplerFilterCache()
    if plan_cache is None or not plan_cache.enabled:
        # No plan tier to share results through: no lookup, no singleflight.
        return _compile_plan_fresh(
            plan, cache, defaults, backend_obj, cache_token, filter_cache
        )

    # Executor-level short-circuit: a stored compiled plan skips grouping,
    # hashing-per-matrix, decomposition and filter resolution entirely.
    loaded = plan_cache.lookup(plan, defaults=defaults, backend=backend_obj)
    if loaded is not None:
        return loaded

    # In-flight coalescing (singleflight): when another thread is already
    # compiling this exact (plan, backend) key, wait for its result to land
    # in the cache instead of duplicating the eigh/cholesky work.  Exactly
    # one waiter per round becomes the leader; a leader that fails wakes the
    # waiters, which miss and elect a new leader — so the loop terminates.
    inflight_key = compiled_plan_cache_key(
        plan, defaults=defaults, cache_token=cache_token
    )
    while True:
        event = plan_cache.join_inflight(inflight_key)
        if event is None:
            break  # this thread leads the compile for the key
        event.wait()
        loaded = plan_cache.lookup(plan, defaults=defaults, backend=backend_obj)
        if loaded is not None:
            return _coalesced(loaded)
    try:
        # A leader that put the plan and released the key after this
        # thread's miss but before its join left no event to wait on: probe
        # once more, or this thread would compile the plan a second time.
        loaded = plan_cache.lookup_memory(plan, inflight_key, backend=backend_obj)
        if loaded is not None:
            return _coalesced(loaded)
        compiled = _compile_plan_fresh(
            plan, cache, defaults, backend_obj, cache_token, filter_cache
        )
        # Idempotent per key, so repeated compiles serialize once.
        plan_cache.put(compiled, defaults=defaults)
        return compiled
    finally:
        plan_cache.finish_inflight(inflight_key)


def _coalesced(loaded: CompiledPlan) -> CompiledPlan:
    """A compiled plan another thread's compile of the same key produced."""
    return dataclasses.replace(
        loaded, report=dataclasses.replace(loaded.report, plan_inflight_hits=1)
    )


def _compile_plan_fresh(
    plan: SimulationPlan,
    cache: DecompositionCache,
    defaults: NumericDefaults,
    backend_obj: LinalgBackend,
    cache_token: str,
    filter_cache: "DopplerFilterCache",
) -> CompiledPlan:
    """The uncached compilation pass: group, deduplicate, decompose."""
    from ..core.coloring import compute_coloring_batch

    start = time.perf_counter()

    # 1. Group entries by stacking signature, preserving first-seen order.
    group_members: Dict[Tuple, List[int]] = {}
    for index, entry in enumerate(plan):
        group_members.setdefault(entry.group_key, []).append(index)

    # 2. Deduplicate matrices plan-wide by content hash and consult the
    #    cache once per unique key.  Misses queue under their decomposition
    #    signature (N, coloring_method, psd_method, epsilon): the Doppler
    #    and fading parts of a group key never change a decomposition.
    entries = plan.entries
    entry_keys: List[str] = [""] * plan.n_entries
    resolved: Dict[str, ColoringDecomposition] = {}
    miss_index: Dict[str, int] = {}  # key -> plan index of its first entry
    pending: Dict[Tuple, List[str]] = {}
    for group_key, indices in group_members.items():
        signature = group_key[:4]
        for index in indices:
            key = entries[index].cache_key(defaults, cache_token)
            entry_keys[index] = key
            if key in resolved or key in miss_index:
                continue
            cached = cache.lookup(key)
            if cached is not None:
                resolved[key] = cached
            else:
                miss_index[key] = index
                pending.setdefault(signature, []).append(key)
    hits = len(resolved)

    # 3. Decompose the misses with one stacked call per signature.
    for (_, coloring_method, psd_method, epsilon), keys in pending.items():
        try:
            computed = compute_coloring_batch(
                np.stack([entries[miss_index[key]].spec.matrix for key in keys]),
                method=coloring_method,
                psd_method=psd_method,
                epsilon=epsilon,
                defaults=defaults,
                backend=backend_obj,
            )
        except (CovarianceError, ColoringError, CholeskyError) as exc:
            if exc.stack_index is None:
                raise
            index = miss_index[keys[exc.stack_index]]
            raise _at_plan_entry(exc, index, entries[index].label) from exc
        for key, decomposition in zip(keys, computed):
            resolved[key] = decomposition
            cache.store(key, decomposition)

    doppler_entries = 0
    # Young–Beaulieu filters are resolved once per unique
    # (M, f_m, sigma_orig^2) across the whole plan — groups differing only
    # in N share a resolution — through the session's filter cache, which
    # serves keys built by its earlier compiles without rebuilding.  The
    # per-plan memo also keeps the "literally shared array" guarantee
    # within one compiled plan.
    filter_memo: Dict[Tuple[int, float, float], Tuple[np.ndarray, float]] = {}
    filter_cache_hits = 0
    groups: List[CompiledGroup] = []
    for group_key, indices in group_members.items():
        fading_family = group_key[5]
        group_entries = tuple(entries[i] for i in indices)

        # 4. Assemble the per-entry coloring stack.
        decompositions = tuple(resolved[entry_keys[i]] for i in indices)
        coloring_stack = np.stack([d.coloring_matrix for d in decompositions])

        # 5. Doppler groups: one shared filter build, per-entry effective
        #    variances (Eq. 19 compensation, or 1.0 when opted out).
        group_doppler = group_entries[0].doppler
        if group_doppler is None:
            doppler_filter = None
            output_variance = None
            sample_variances = np.array(
                [entry.sample_variance for entry in group_entries], dtype=float
            )
        else:
            memoized = filter_memo.get(group_doppler.filter_key)
            if memoized is None:
                coefficients, output_variance, was_cached = filter_cache.get(
                    group_doppler.n_points,
                    group_doppler.normalized_doppler,
                    group_doppler.input_variance_per_dim,
                )
                memoized = (coefficients, output_variance)
                filter_memo[group_doppler.filter_key] = memoized
                if was_cached:
                    filter_cache_hits += 1
            doppler_filter, output_variance = memoized
            doppler_entries += len(group_entries)
            sample_variances = np.array(
                [
                    output_variance if entry.doppler.compensate_variance else 1.0
                    for entry in group_entries
                ],
                dtype=float,
            )
        groups.append(
            CompiledGroup(
                indices=tuple(indices),
                entries=group_entries,
                coloring_stack=coloring_stack,
                sample_variances=sample_variances,
                decompositions=decompositions,
                doppler=group_doppler,
                doppler_filter=doppler_filter,
                doppler_output_variance=output_variance,
                fading_family=fading_family,
            )
        )

    report = CompileReport(
        n_entries=plan.n_entries,
        n_groups=len(groups),
        n_unique_matrices=len(resolved),
        cache_hits=hits,
        cache_misses=len(miss_index),
        compile_seconds=time.perf_counter() - start,
        doppler_filters_built=len(filter_memo),
        doppler_entries=doppler_entries,
        doppler_filter_cache_hits=filter_cache_hits,
    )
    return CompiledPlan(
        plan=plan, groups=tuple(groups), report=report, backend=backend_obj
    )


def _at_plan_entry(
    exc: Union[CovarianceError, DecompositionError], index: int, label: Optional[str]
) -> Exception:
    """``exc`` again, its stack index replaced by the plan entry it came from.

    The stacked decomposition only knows a miss's position in its signature
    stack; the caller needs the entry of the plan.  The message keeps its
    leading text, so callers matching on it still match.
    """
    where = f"plan entry {index}"
    if label is not None:
        where += f" (label {label!r})"
    message = str(exc).replace(f"stack index {exc.stack_index}", where)
    return type(exc)(message)
