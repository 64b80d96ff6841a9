"""The unified session API: one :class:`Simulator` in front of the engine.

Before this module the package had several parallel front doors — the
one-call helpers in :mod:`repro.core.pipeline`, the plan/compile/execute
engine in :mod:`repro.engine`, :class:`repro.channels.scenario.ScenarioSweep`
for sweeps, and :func:`repro.parallel.ensemble.run_plan_parallel` for
process-pool runs.  A :class:`Simulator` is the single public entry point
that fronts all of them:

>>> import numpy as np
>>> from repro.api import Simulator
>>> sim = Simulator(backend="numpy")
>>> K = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
>>> envelopes = sim.envelopes(K, 1000, seed=7)          # one-call generation
>>> from repro.engine import SimulationPlan
>>> plan = SimulationPlan.from_specs([K, 2 * K], seed=3)
>>> result = sim.run(plan, 500)                          # batched execution
>>> blocks = list(sim.stream(plan, block_size=128, n_blocks=4))  # bounded memory

Sessions own three resources:

* a **linalg backend** (``backend=``) — the pluggable decompose-stack /
  matmul implementation from :mod:`repro.engine.backends`;
* a **decomposition cache** (``cache=``) — shared across every run the
  session executes (``None`` uses the process-wide cache);
* a **worker budget** (``max_workers=``) — ``run`` partitions plans across
  the session's process pool when the budget exceeds one, and ``submit``
  sizes its thread pool from it for async multiplexing.

Both pools are built lazily and belong to the session: the process pool's
workers start once, on the first partitioned run, each builds its own
engine once, and every later run reuses them (and their warm caches).
``close()`` — or ``with Simulator(...) as sim:`` — shuts both down; a
session nobody closed reaps its workers when it is garbage-collected.

``await sim.submit(plan, n)`` makes the session awaitable-friendly: many
concurrent studies can be multiplexed over one session with
``asyncio.gather``, each submit executing in the session's thread pool while
numpy releases the GIL inside BLAS.

The classic helpers remain as thin delegating wrappers
(:func:`repro.core.pipeline.generate_correlated_envelopes` /
``generate_from_scenario``), and :func:`default_simulator` is the
process-wide session they route through — so the old API is literally the
new one with the default session.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .config import DEFAULTS, NumericDefaults, cache_dir_from_env
from .engine import (
    BackendSpec,
    BatchResult,
    CompiledPlan,
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    LinalgBackend,
    SimulationEngine,
    SimulationPlan,
)
from .exceptions import ParallelExecutionError, SpecificationError
from .types import EnvelopeBlock, GaussianBlock, SeedLike

__all__ = ["Simulator", "default_simulator"]

#: What :meth:`Simulator.run` accepts as work.
RunnableWork = Union[SimulationPlan, CompiledPlan, "ScenarioSweepLike"]


#: This process's engine when it is a session pool worker (built once by
#: :func:`_init_worker`); ``None`` everywhere else.
_WORKER_ENGINE: Optional[SimulationEngine] = None


def _init_worker(
    backend: LinalgBackend,
    cache_dir: Optional[str] = None,
    plan_cache_dir: Optional[str] = None,
) -> None:
    """Pool initializer: build the worker's private engine once.

    Module-level so :class:`ProcessPoolExecutor` can run it in every worker.
    The backend instance travels to the worker once, with the initializer
    arguments (the built-in backends reduce to their constructor
    arguments), so unregistered instances — custom subclasses, non-default
    scipy drivers — work identically in parallel and in-process runs.  The
    engine and its caches live as long as the worker, so a covariance one
    run decomposed is a memory hit for every later sub-plan this worker
    compiles.  Process-wide caches are not shared across processes, but
    when the parent session has a persistent ``cache_dir`` every worker
    attaches the same disk tier, so workers *do* share decompositions,
    Doppler filters, and compiled sub-plan artifacts through the filesystem
    (disk writes are atomic and corrupt reads degrade to misses).  The
    parent decides what to forward — explicit argument, an explicit cache's
    own disk tier, or ``REPRO_CACHE_DIR`` for default-cache sessions — so
    an explicitly memory-only session stays memory-only in workers too.
    ``plan_cache_dir`` mirrors the *parent engine's* compiled-plan tier
    separately, so a session whose plan tier is detached (an explicitly
    hand-configured cache) keeps it detached in workers instead of
    silently gaining whole-plan short-circuits only when a run happens to
    parallelize.
    """
    global _WORKER_ENGINE
    if cache_dir is None:
        _WORKER_ENGINE = SimulationEngine(cache=DecompositionCache(), backend=backend)
    else:
        _WORKER_ENGINE = SimulationEngine(
            cache=DecompositionCache(cache_dir=cache_dir),
            filter_cache=DopplerFilterCache(cache_dir=cache_dir),
            plan_cache=CompiledPlanCache(plan_cache_dir),
            backend=backend,
        )


def _run_subplan(subplan: SimulationPlan, n_samples: int) -> BatchResult:
    """Worker task: compile and execute one sub-plan on the worker's engine."""
    return _WORKER_ENGINE.run(subplan, n_samples)


class Simulator:
    """A simulation session: one entry point over the batched engine.

    Parameters
    ----------
    backend:
        Linalg backend name (``"numpy"``, ``"scipy"``, import-gated GPU
        backends), a :class:`repro.engine.backends.LinalgBackend` instance,
        or ``None`` for the numpy default.  With the numpy backend, every
        result is bit-identical to the pre-session helpers and to looping
        single-spec generators with the same seeds.
    cache:
        Decomposition cache shared by every run of this session.  ``None``
        uses the process-wide cache; pass ``DecompositionCache(maxsize=0)``
        to disable reuse.
    cache_dir:
        Persistent artifact-cache directory for this session: builds a
        private :class:`DecompositionCache`, Young–Beaulieu filter cache,
        and compiled-plan cache whose entries spill to disk under it (the
        ``decompositions/``, ``filters/``, and ``plans/`` namespaces of the
        unified artifact store), so repeated processes sharing the
        directory skip recompilation — a warm run loads whole compiled
        plans without a single ``eigh``/``cholesky`` or filter build (see
        the README's "Caching & persistence" and ``docs/ARCHITECTURE.md``).
        Conflicts with an explicit ``cache`` — construct
        ``DecompositionCache(cache_dir=...)`` yourself to mix.  ``None``
        (default) leaves caching in-memory unless the ``REPRO_CACHE_DIR``
        environment variable configured the process-wide caches.
    max_workers:
        Worker budget.  ``None`` or 1 keeps everything in-process;
        larger values let :meth:`run` partition plans across a process pool
        of that many workers (the old ``run_plan_parallel``) and size
        :meth:`submit`'s thread pool for async multiplexing.  The pool is
        built on the first partitioned run and reused until :meth:`close`;
        if a worker dies, that run raises
        :class:`~repro.exceptions.ParallelExecutionError` and the next run
        builds a fresh pool.
    defaults:
        Numeric tolerance bundle for the decomposition pipeline.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Simulator
    >>> sim = Simulator()
    >>> K = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    >>> sim.envelopes(K, 100, seed=5).envelopes.shape
    (2, 100)
    """

    def __init__(
        self,
        *,
        backend: BackendSpec = None,
        cache: Optional[DecompositionCache] = None,
        cache_dir: Union[None, str, "Path"] = None,
        max_workers: Optional[int] = None,
        defaults: NumericDefaults = DEFAULTS,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SpecificationError(f"max_workers must be >= 1, got {max_workers}")
        self._engine = SimulationEngine(
            cache=cache, defaults=defaults, backend=backend, cache_dir=cache_dir
        )
        # The directory process-pool workers attach their disk tier to:
        # the explicit argument; the disk tier a caller-supplied cache
        # already carries (DecompositionCache(cache_dir=...) mixed in by
        # hand) — which also keeps an explicitly memory-only cache
        # memory-only in workers; or, for default-cache sessions only,
        # REPRO_CACHE_DIR — mirroring what the parent's own default caches
        # attach.
        if cache_dir is None:
            cache_dir = cache.cache_dir if cache is not None else cache_dir_from_env()
        self._cache_dir = None if cache_dir is None else str(cache_dir)
        # The compiled-plan tier is forwarded separately: workers attach it
        # exactly when the parent engine's plan cache is attached, so the
        # serial and parallel paths agree on whether whole-plan
        # short-circuits may happen.
        plan_dir = self._engine.plan_cache.cache_dir
        self._plan_cache_dir = None if plan_dir is None else str(plan_dir)
        self._defaults = defaults
        self._max_workers = max_workers
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_pool_finalizer: Optional[weakref.finalize] = None
        self._pool_lock = threading.Lock()
        self._pending_submissions = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> LinalgBackend:
        """The linalg backend this session compiles and executes on."""
        return self._engine.backend

    @property
    def cache(self) -> DecompositionCache:
        """The decomposition cache shared by this session's runs."""
        return self._engine.cache

    @property
    def cache_stats(self):
        """Snapshot of the session cache's hit/miss/eviction counters."""
        return self._engine.cache_stats

    @property
    def cache_dir(self) -> Optional[str]:
        """The session's persistent cache directory (``None`` if in-memory)."""
        return self._cache_dir

    @property
    def max_workers(self) -> Optional[int]:
        """The session's worker budget (``None`` means in-process)."""
        return self._max_workers

    @property
    def pending_submissions(self) -> int:
        """Submissions whose thread-pool futures have not resolved yet.

        Incremented when :meth:`submit` enqueues work and decremented when
        the underlying future completes, fails, or is cancelled — a
        submission cancelled before it starts releases its slot without
        ever running, so this returning to zero means no orphaned work
        remains queued in the pool.
        """
        with self._pool_lock:
            return self._pending_submissions

    @property
    def engine(self) -> SimulationEngine:
        """The underlying engine (compile/execute seam) of this session."""
        return self._engine

    # ------------------------------------------------------------------ #
    # Compilation and batched execution
    # ------------------------------------------------------------------ #
    def compile(self, plan: SimulationPlan) -> CompiledPlan:
        """Compile a plan once for repeated :meth:`run` / :meth:`stream` calls."""
        return self._engine.compile(plan)

    def _coerce_plan(
        self,
        work: RunnableWork,
        *,
        gaussian_powers=None,
        seed: SeedLike = None,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> Union[SimulationPlan, CompiledPlan]:
        """Accept a plan, a compiled plan, or a scenario sweep as work."""
        if isinstance(work, (SimulationPlan, CompiledPlan)):
            return work
        if hasattr(work, "to_plan"):  # ScenarioSweep (or anything sweep-shaped)
            if gaussian_powers is None:
                raise SpecificationError(
                    "running a scenario sweep requires gaussian_powers (one "
                    "per-branch power vector, or one per scenario)"
                )
            return work.to_plan(gaussian_powers, seed=seed, seeds=seeds)
        raise SpecificationError(
            "work must be a SimulationPlan, a CompiledPlan, or a ScenarioSweep; "
            f"got {type(work).__name__}"
        )

    def run(
        self,
        work: RunnableWork,
        n_samples: int,
        *,
        gaussian_powers=None,
        seed: SeedLike = None,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> BatchResult:
        """Execute a plan, compiled plan, or scenario sweep as one batch.

        With ``max_workers > 1`` and a multi-entry (un-compiled) plan, the
        plan is partitioned into contiguous sub-plans executed across the
        session's process pool — the session form of the old
        ``run_plan_parallel`` — and the blocks are reassembled in plan
        order; a closed session runs the plan in-process.  Results are
        bit-identical to the in-process path because every entry draws from
        its own seeded stream; the worker count is a pure throughput knob.

        Parameters
        ----------
        work:
            A :class:`SimulationPlan`, a :class:`CompiledPlan` (always
            executed in-process: its coloring matrices are already bound to
            this session's backend), or a
            :class:`repro.channels.scenario.ScenarioSweep`.
        n_samples:
            Time samples per branch for every entry.
        gaussian_powers, seed, seeds:
            Only used when ``work`` is a scenario sweep (forwarded to
            :meth:`~repro.channels.scenario.ScenarioSweep.to_plan`).
        """
        plan = self._coerce_plan(
            work, gaussian_powers=gaussian_powers, seed=seed, seeds=seeds
        )
        workers = self._max_workers or 1
        if (
            workers <= 1
            or isinstance(plan, CompiledPlan)
            or plan.n_entries <= 1
        ):
            return self._engine.run(plan, n_samples)
        return self._run_parallel(plan, n_samples, workers)

    def _worker_pool(self) -> Optional[ProcessPoolExecutor]:
        """The session's process pool, built on first use; ``None`` once closed."""
        with self._pool_lock:
            if self._closed:
                return None
            if self._process_pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_worker,
                    initargs=(self.backend, self._cache_dir, self._plan_cache_dir),
                )
                self._process_pool = pool
                # Reaps the workers of a session nobody closed.  The callback
                # holds the pool, never the session, so it cannot keep the
                # session alive.
                self._process_pool_finalizer = weakref.finalize(
                    self, pool.shutdown, wait=False
                )
            return self._process_pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken ``pool`` so the next run builds a fresh one."""
        with self._pool_lock:
            if self._process_pool is not pool:
                return  # a concurrent run (or close) already dropped it
            finalizer = self._process_pool_finalizer
            self._process_pool = None
            self._process_pool_finalizer = None
        finalizer()  # shutdown(wait=False): the workers are gone or going

    def _run_parallel(
        self, plan: SimulationPlan, n_samples: int, workers: int
    ) -> BatchResult:
        """Partition ``plan`` across the session's pool and merge the results."""
        import time

        if n_samples < 1:
            raise ParallelExecutionError(f"n_samples must be >= 1, got {n_samples}")
        pool = self._worker_pool()
        if pool is None:
            # A closed session runs in-process: bit-identical by invariant 1.
            return self._engine.run(plan, n_samples)
        from .shard.slicing import merge_results, partition_plan

        slices = partition_plan(plan, int(workers))
        start = time.perf_counter()
        try:
            futures = [
                pool.submit(_run_subplan, plan_slice.plan, n_samples)
                for plan_slice in slices
            ]
            partials = [future.result() for future in futures]
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                self._discard_pool(pool)
            raise ParallelExecutionError(f"parallel plan execution failed: {exc}") from exc
        # The same merge as sharded runs: plan order, whole-plan indices,
        # summed compile counters, and a contiguity/block-count check.
        return merge_results(
            slices,
            partials,
            n_samples=n_samples,
            wall_seconds=time.perf_counter() - start,
            backend=self.backend.name,
        )

    def stream(
        self,
        work: Union[SimulationPlan, CompiledPlan],
        *,
        block_size: int,
        n_blocks: int,
    ) -> Iterator[BatchResult]:
        """Stream fixed-size batched blocks with bounded memory.

        Per-entry generators persist across blocks, so concatenating an
        entry's streamed blocks equals repeated ``generate_gaussian``
        calls on one standalone generator — for any block size, divisible
        into the record length or not.
        """
        return self._engine.stream(work, block_size=block_size, n_blocks=n_blocks)

    # ------------------------------------------------------------------ #
    # Async multiplexing
    # ------------------------------------------------------------------ #
    def _executor(self) -> Executor:
        with self._pool_lock:
            if self._closed:
                raise ParallelExecutionError("this Simulator session has been closed")
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-simulator",
                )
            return self._thread_pool

    async def submit(
        self,
        work: RunnableWork,
        n_samples: int,
        *,
        gaussian_powers=None,
        seed: SeedLike = None,
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> BatchResult:
        """Awaitable :meth:`run`: execute a plan in the session's thread pool.

        Many concurrent studies can be multiplexed over one session::

            results = await asyncio.gather(
                sim.submit(plan_a, 1000),
                sim.submit(plan_b, 1000),
                sim.submit(plan_c, 1000),
            )

        Each submit produces exactly the :class:`BatchResult` the
        synchronous :meth:`run` would (the thread pool only changes *when*
        the work happens, never what it computes: every entry draws from its
        own seeded stream and the decomposition cache is thread-safe).

        Cancelling the returned awaitable is cooperative and conserves
        resources: a submission still queued behind busy workers is
        cancelled *before it starts* (its pool slot is released and the
        work never runs), while one already executing runs to completion
        in its thread but the awaiting coroutine unwinds immediately.
        Either way :attr:`pending_submissions` drops back when the
        underlying future resolves — cancellation never leaks a slot.
        """
        call = functools.partial(
            self.run,
            work,
            n_samples,
            gaussian_powers=gaussian_powers,
            seed=seed,
            seeds=seeds,
        )
        executor = self._executor()
        with self._pool_lock:
            self._pending_submissions += 1
        try:
            future = executor.submit(call)
        except BaseException:
            with self._pool_lock:
                self._pending_submissions -= 1
            raise

        def _release(_finished) -> None:
            with self._pool_lock:
                self._pending_submissions -= 1

        # Fires on completion, failure, *and* successful cancellation, so
        # the pending counter is conserved on every path.
        future.add_done_callback(_release)
        # wrap_future chains cancellation: cancelling the awaitable cancels
        # the pool future, which releases a not-yet-started slot.
        return await asyncio.wrap_future(future)

    # ------------------------------------------------------------------ #
    # One-call generation (the classic helpers, session-scoped)
    # ------------------------------------------------------------------ #
    def envelopes(
        self,
        source,
        n_samples: int,
        *,
        seed: SeedLike = None,
        gaussian_powers=None,
        envelope_powers: bool = False,
        mode: str = "auto",
        normalized_doppler: Optional[float] = None,
        n_points: Optional[int] = None,
        compensate_variance: bool = True,
        coloring_method: str = "eigen",
        psd_method: str = "clip",
        fading=None,
        return_gaussian: bool = False,
    ) -> Union[EnvelopeBlock, GaussianBlock]:
        """Generate correlated Rayleigh envelopes for one specification.

        The session form of the classic one-call helpers: pass a
        :class:`repro.core.covariance.CovarianceSpec`, a raw covariance
        matrix, or a scenario object exposing
        ``covariance_spec(gaussian_powers)`` (the OFDM / MIMO scenario
        dataclasses), and get the envelope (or Gaussian) block back.

        Parameters
        ----------
        source:
            Covariance spec, raw complex covariance matrix, or scenario
            object.  Scenario objects require ``gaussian_powers``.
        n_samples:
            Time samples per branch.  In Doppler mode this is rounded up to
            a whole number of IDFT blocks and then truncated.
        seed:
            Seed or generator for the white-sample stream.  The same seed
            fed to a standalone generator (or the old helpers) produces
            bit-identical samples on the numpy backend.
        gaussian_powers:
            Per-branch complex-Gaussian powers, required when ``source`` is
            a scenario object.
        envelope_powers:
            For raw matrices: interpret diagonal powers as *envelope*
            variances and convert through Eq. (11).
        mode:
            ``"auto"`` (default) selects Doppler mode exactly when a
            normalized Doppler is given or inferred; ``"doppler"`` requires
            one (explicit or scenario-inferred) and raises otherwise;
            ``"snapshot"`` forbids one.
        normalized_doppler:
            If given (``0 < f_m < 0.5``), use the real-time Doppler-shaped
            generator of the paper's Section 5; scenarios carrying their own
            Doppler settings supply it implicitly.  Both the coloring path
            and the IDFT substrate run on the session backend (a Doppler
            one-entry plan of the batched engine).
        n_points:
            IDFT block length ``M`` for Doppler mode.  ``None`` picks the
            smallest valid power of two holding ``n_samples``
            (:func:`repro.core.pipeline.doppler_block_size`); an explicit
            smaller value makes the engine concatenate (and truncate)
            multiple blocks.
        compensate_variance:
            Doppler mode only: apply the Eq. (19) variance compensation
            (default, the paper's algorithm) or reproduce the uncompensated
            defect of [6].
        coloring_method, psd_method:
            Algorithm variants (defaults are the paper's choices).
        fading:
            Optional fading model (see :mod:`repro.models.fading`): a model
            name, a ``{"model", "shape", "shadowing_sigma_db"}`` mapping, or
            a :class:`repro.models.FadingSpec`.  ``None`` (default) is the
            paper's Rayleigh — byte-identical to the pre-model-zoo path.
        return_gaussian:
            Return the complex :class:`GaussianBlock` instead of envelopes.
        """
        from .core.covariance import CovarianceSpec
        from .core.pipeline import doppler_block_size
        from .engine import DopplerSpec

        if mode not in ("auto", "snapshot", "doppler"):
            raise SpecificationError(
                f"mode must be 'auto', 'snapshot', or 'doppler'; got {mode!r}"
            )
        if n_samples < 1:
            raise SpecificationError(f"n_samples must be >= 1, got {n_samples}")
        if mode == "snapshot" and normalized_doppler is not None:
            raise SpecificationError(
                "mode='snapshot' conflicts with an explicit normalized_doppler; "
                "drop one of the two"
            )

        if isinstance(source, CovarianceSpec):
            spec = source
        elif hasattr(source, "covariance_spec"):
            if gaussian_powers is None:
                raise SpecificationError(
                    "scenario sources require gaussian_powers (per-branch "
                    "complex-Gaussian powers)"
                )
            spec = source.covariance_spec(np.asarray(gaussian_powers, dtype=float))
            if normalized_doppler is None and mode != "snapshot":
                normalized_doppler = getattr(source, "default_normalized_doppler", None)
        else:
            matrix = np.asarray(source, dtype=complex)
            if envelope_powers:
                from .core.covariance import correlation_coefficient_matrix

                env_powers = np.real(np.diag(matrix)).copy()
                rho = correlation_coefficient_matrix(matrix)
                spec = CovarianceSpec.from_envelope_variances(env_powers, rho)
            else:
                spec = CovarianceSpec.from_covariance_matrix(matrix)

        if mode == "doppler" and normalized_doppler is None:
            raise SpecificationError(
                "mode='doppler' requires a normalized_doppler (explicitly, or "
                "inferred from a scenario carrying Doppler settings)"
            )

        plan = SimulationPlan()
        if normalized_doppler is None:
            # Doppler-only knobs must not be dropped silently on the
            # snapshot path — a forgotten normalized_doppler would otherwise
            # return un-shaped samples with no signal.
            if n_points is not None:
                raise SpecificationError(
                    "n_points applies to Doppler mode only; pass "
                    "normalized_doppler (or mode='doppler' with a scenario "
                    "carrying Doppler settings)"
                )
            if compensate_variance is not True:
                raise SpecificationError(
                    "compensate_variance applies to Doppler mode only; pass "
                    "normalized_doppler (or mode='doppler' with a scenario "
                    "carrying Doppler settings)"
                )
            # The snapshot path is the B = 1 case of the batched engine: a
            # one-entry plan compiled against the session cache and backend.
            plan.add(
                spec,
                seed=seed,
                coloring_method=coloring_method,
                psd_method=psd_method,
                fading=fading,
            )
        else:
            # Doppler mode is the B = 1 case of the batched Doppler
            # substrate: bit-identical to a standalone
            # RealTimeRayleighGenerator with the same seed.
            if n_points is None:
                n_points = doppler_block_size(n_samples, normalized_doppler)
            plan.add(
                spec,
                seed=seed,
                coloring_method=coloring_method,
                psd_method=psd_method,
                doppler=DopplerSpec(
                    normalized_doppler=float(normalized_doppler),
                    n_points=int(n_points),
                    compensate_variance=compensate_variance,
                ),
                fading=fading,
            )
        gaussian = self._engine.run(plan, n_samples).blocks[0]

        return gaussian if return_gaussian else gaussian.envelopes()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the session's thread and process pools (idempotent).

        Waits for running submissions, then for the process-pool workers to
        exit.  Closed sessions still :meth:`run`, in-process — bit-identical
        to a pooled run — while :meth:`submit` raises.
        """
        with self._pool_lock:
            threads, self._thread_pool = self._thread_pool, None
            processes, self._process_pool = self._process_pool, None
            finalizer, self._process_pool_finalizer = self._process_pool_finalizer, None
            self._closed = True
        if threads is not None:
            threads.shutdown(wait=True)
        if processes is not None:
            finalizer.detach()
            processes.shutdown(wait=True)

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(backend={self.backend.name!r}, "
            f"max_workers={self._max_workers!r}, cache_size={len(self.cache)})"
        )


#: Process-wide session backing the classic one-call helpers.
_DEFAULT_SIMULATOR: Optional[Simulator] = None
_DEFAULT_LOCK = threading.Lock()


def default_simulator() -> Simulator:
    """The process-wide session (numpy backend, shared decomposition cache).

    The classic helpers (:func:`repro.core.pipeline.generate_correlated_envelopes`
    and friends) route through this session, which makes the old API the
    default-session case of the new one — and bit-identical to it.
    """
    global _DEFAULT_SIMULATOR
    with _DEFAULT_LOCK:
        if _DEFAULT_SIMULATOR is None:
            _DEFAULT_SIMULATOR = Simulator()
        return _DEFAULT_SIMULATOR
