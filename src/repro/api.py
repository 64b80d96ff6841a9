"""The unified session API: one :class:`Simulator` in front of the engine.

A :class:`Simulator` is the package's one front door.  It fronts the
plan/compile/execute engine of :mod:`repro.engine` (a
:class:`repro.channels.scenario.ScenarioSweep` runs as ``sweep.to_plan(...)``);
one-call generation,
Monte-Carlo replica ensembles (``R`` entries sharing one spec) and
bounded-memory records (a one-entry plan streamed block by block) are all
plans it runs:

>>> import numpy as np
>>> from repro.api import Simulator
>>> sim = Simulator()
>>> K = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
>>> envelopes = sim.envelopes(K, 1000, seed=7)          # one-call generation
>>> from repro.engine import SimulationPlan
>>> plan = SimulationPlan.from_specs([K, 2 * K], seed=3)
>>> result = sim.run(plan, 500)                          # batched execution
>>> blocks = list(sim.stream(plan, block_size=128, n_blocks=4))  # bounded memory
>>> ensemble = sim.run(SimulationPlan.from_specs([K] * 8, seed=123), 500)  # replicas

Sessions own two kinds of resource:

* their **caches** — a decomposition cache (``cache=``), a Doppler filter
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
from typing import Iterator, Optional, Union

from .engine import (
    BatchResult,
    CompiledPlan,
    DecompositionCache,
    SimulationEngine,
    SimulationPlan,
)
from .exceptions import ParallelExecutionError, SpecificationError
from .types import EnvelopeBlock

__all__ = ["Simulator"]

class Simulator:
    """A simulation session: one entry point over the batched engine.

    Every result is bit-identical to looping single-spec generators with
    the same seeds.

    Parameters
    ----------
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
        cache: Optional[DecompositionCache] = None,
        cache_dir: Union[None, str, "Path"] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SpecificationError(f"max_workers must be >= 1, got {max_workers}")
        self._engine = SimulationEngine(cache=cache, cache_dir=cache_dir)
        self._max_workers = max_workers
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._pending_submissions = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> DecompositionCache:
        """The decomposition cache shared by this session's runs."""
        return self._engine.cache

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

    def run(self, work: Union[SimulationPlan, CompiledPlan], n_samples: int) -> BatchResult:
        """Execute a plan or compiled plan as one batch.

        Always in-process, on this session's engine: results are
        bit-identical whatever ``max_workers`` is.  A
        :class:`repro.channels.scenario.ScenarioSweep` becomes a plan with
        ``sweep.to_plan(gaussian_powers, seed=s)``.
        """
        if not isinstance(work, (SimulationPlan, CompiledPlan)):
            raise SpecificationError(
                "work must be a SimulationPlan or a CompiledPlan (a ScenarioSweep "
                f"becomes one with sweep.to_plan(...)); got {type(work).__name__}"
            )
        return self._engine.run(work, n_samples)

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
        self, work: Union[SimulationPlan, CompiledPlan], n_samples: int
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
        call = functools.partial(self.run, work, n_samples)
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
    def envelopes(self, covariance, n_samples: int, **entry) -> EnvelopeBlock:
        """Generate the envelopes of one entry: a one-entry plan run by :meth:`run`.

        ``covariance`` and the keywords are exactly those of
        :meth:`repro.engine.SimulationPlan.add` (``seed``, ``doppler``,
        ``fading``, the algorithm options, ...), so the result is
        bit-identical to ``sim.run(plan, n_samples).blocks[0].envelopes()``
        for that plan.  Gaussian samples are that plan's ``blocks[0]``; a
        scenario passes ``scenario.covariance_spec(powers)``, and envelope
        powers pass :meth:`repro.core.CovarianceSpec.from_envelope_variances`.
        """
        plan = SimulationPlan()
        plan.add(covariance, **entry)
        return self.run(plan, n_samples).blocks[0].envelopes()

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
            f"Simulator(max_workers={self._max_workers!r}, cache_size={len(self.cache)})"
        )
