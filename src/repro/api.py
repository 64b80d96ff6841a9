"""The unified session API: one :class:`Simulator` in front of the engine.

A :class:`Simulator` is the package's one front door.  It fronts the
plan/compile/execute engine of :mod:`repro.engine` and runs
:class:`repro.channels.scenario.ScenarioSweep` sweeps; one-call generation,
Monte-Carlo replica ensembles (``R`` entries sharing one spec) and
bounded-memory records (a one-entry plan streamed block by block) are all
plans it runs:

>>> import numpy as np
>>> from repro.api import Simulator
>>> sim = Simulator(backend="numpy")
>>> K = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
>>> envelopes = sim.envelopes(K, 1000, seed=7)          # one-call generation
>>> from repro.engine import SimulationPlan
>>> plan = SimulationPlan.from_specs([K, 2 * K], seed=3)
>>> result = sim.run(plan, 500)                          # batched execution
>>> blocks = list(sim.stream(plan, block_size=128, n_blocks=4))  # bounded memory
>>> ensemble = sim.run(SimulationPlan.from_specs([K] * 8, seed=123), 500)  # replicas

Sessions own three kinds of resource:

* a **linalg backend** (``backend=``) — the pluggable decompose-stack /
  matmul implementation from :mod:`repro.engine.backends`;
* its **caches** — a decomposition cache (``cache=``), a Doppler filter
  cache and a compiled-plan cache, shared across every run the session
  executes and by no other session (``None`` builds the session's own);
* a **thread budget** (``max_workers=``) — the size of the thread pool
  :meth:`Simulator.submit` runs on.

Every ``run`` executes in-process.  Per entry the work is one N×N
decomposition and one N×n coloring multiply, which at serving sizes costs
less than shipping a sub-plan to another process and its result back;
:mod:`repro.shard` is the package's one multiprocess path for plans.  The
thread pool is built lazily and belongs to the session: ``close()`` — or
``with Simulator(...) as sim:`` — shuts it down.

``await sim.submit(plan, n)`` makes the session awaitable-friendly: many
concurrent studies can be multiplexed over one session with
``asyncio.gather``, each submit executing in the session's thread pool while
numpy releases the GIL inside BLAS.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .config import DEFAULTS, NumericDefaults
from .engine import (
    BackendSpec,
    BatchResult,
    CompiledPlan,
    DecompositionCache,
    LinalgBackend,
    SimulationEngine,
    SimulationPlan,
)
from .exceptions import ParallelExecutionError, SpecificationError
from .types import EnvelopeBlock, GaussianBlock, SeedLike

__all__ = ["Simulator"]

#: What :meth:`Simulator.run` accepts as work.
RunnableWork = Union[SimulationPlan, CompiledPlan, "ScenarioSweepLike"]


class Simulator:
    """A simulation session: one entry point over the batched engine.

    Parameters
    ----------
    backend:
        Linalg backend name (``"numpy"``, ``"scipy"``), a
        :class:`repro.engine.backends.LinalgBackend` instance,
        or ``None`` for the numpy default.  With the numpy backend, every
        result is bit-identical to looping single-spec generators with the
        same seeds.
    cache:
        Decomposition cache shared by every run of this session.  ``None``
        builds one the session owns; pass ``DecompositionCache(maxsize=0)``
        to disable reuse.
    cache_dir:
        Persistent cache directory for this session: builds a private
        compiled-plan cache whose entries spill to its ``plans/``
        namespace, so repeated processes sharing the directory skip
        recompilation — a warm run loads whole compiled plans without a
        single ``eigh``/``cholesky`` or filter build (see the README's
        "Caching & persistence" and ``docs/ARCHITECTURE.md``).  Conflicts
        with an explicit ``cache``.  ``None`` (default) keeps every cache
        in memory.
    max_workers:
        Size of :meth:`submit`'s thread pool (``None`` lets
        :class:`~concurrent.futures.ThreadPoolExecutor` choose).  :meth:`run`
        always executes in-process; partition a plan across processes with
        :mod:`repro.shard`.
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
        self._max_workers = max_workers
        self._thread_pool: Optional[ThreadPoolExecutor] = None
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
        """The directory of the session's ``plans/`` tier (``None`` if in-memory)."""
        cache_dir = self._engine.plan_cache.cache_dir
        return None if cache_dir is None else str(cache_dir)

    @property
    def max_workers(self) -> Optional[int]:
        """The size of :meth:`submit`'s thread pool (``None``: executor default)."""
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

        Always in-process, on this session's engine: results are
        bit-identical whatever ``max_workers`` is.

        Parameters
        ----------
        work:
            A :class:`SimulationPlan`, a :class:`CompiledPlan`, or a
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
        return self._engine.run(plan, n_samples)

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
        into the record length or not.  A bad ``block_size`` or
        ``n_blocks`` raises :class:`~repro.exceptions.GenerationError`
        here, before the plan compiles.
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
    # One-call generation
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

        Pass a :class:`repro.core.covariance.CovarianceSpec`, a raw covariance
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
            fed to a standalone generator produces bit-identical samples on
            the numpy backend.
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
            (:func:`repro.engine.doppler_block_size`); an explicit
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
        from .engine import DopplerSpec, doppler_block_size

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
        elif gaussian_powers is not None:
            raise SpecificationError(
                "gaussian_powers applies to scenario sources, which must expose a "
                f"covariance_spec(gaussian_powers) method; got {type(source).__name__}"
            )
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
        """Shut down the session's thread pool (idempotent).

        Waits for running submissions.  Closed sessions still :meth:`run`;
        :meth:`submit` raises.
        """
        with self._pool_lock:
            threads, self._thread_pool = self._thread_pool, None
            self._closed = True
        if threads is not None:
            threads.shutdown(wait=True)

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(backend={self.backend.name!r}, "
            f"max_workers={self._max_workers!r}, cache_size={len(self.cache)})"
        )
