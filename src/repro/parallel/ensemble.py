"""Process-pool Monte-Carlo ensembles and plan-level parallelism.

Monte-Carlo validation of the generator (e.g. estimating the covariance error
distribution over many independent replicas) is embarrassingly parallel.  The
functions here fan replicas out over a :class:`concurrent.futures`
process pool, giving each worker an independent, deterministic seed via
:func:`repro.parallel.partition.build_worker_tasks`, and reduce the results.

Work is partitioned at two granularities:

* **replicas** of one covariance matrix
  (:func:`run_covariance_ensemble` / :func:`monte_carlo_covariance`), and
* **plans** — :func:`run_plan_parallel` splits a
  :class:`repro.engine.SimulationPlan` of many scenarios into contiguous
  sub-plans, each worker compiles and executes its sub-plan with the batched
  engine, and the per-entry blocks are reassembled in plan order.  Results
  are bit-identical to executing the whole plan in one process (each entry
  draws from its own seeded stream), so the worker count is a pure
  throughput knob.  This granularity now lives in the session API —
  :func:`run_plan_parallel` is a thin wrapper over
  ``Simulator(max_workers=N).run(...)`` (:mod:`repro.api`).

The worker functions are module-level functions (not closures) so they can be
pickled by the default ``spawn``/``fork`` start methods.  For small jobs (or
``n_workers=1``) the work runs sequentially in-process, which keeps unit
tests fast and avoids pool start-up costs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.covariance import CovarianceSpec
from ..core.generator import RayleighFadingGenerator
from ..core.statistics import covariance_match_report
from ..exceptions import ParallelExecutionError
from ..types import GaussianBlock, SeedLike
from .partition import WorkerTask, build_worker_tasks

__all__ = [
    "EnsembleResult",
    "run_covariance_ensemble",
    "monte_carlo_covariance",
    "run_plan_parallel",
]


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregate of a covariance Monte-Carlo ensemble.

    Attributes
    ----------
    relative_errors:
        Per-replica relative Frobenius error of the sample covariance.
    mean_covariance:
        Sample-count-weighted average of the per-replica sample covariances.
    total_samples:
        Total samples across all replicas.
    n_replicas:
        Number of replicas that ran.
    """

    relative_errors: np.ndarray
    mean_covariance: np.ndarray
    total_samples: int
    n_replicas: int

    @property
    def mean_relative_error(self) -> float:
        """Average per-replica relative covariance error."""
        return float(np.mean(self.relative_errors))

    @property
    def worst_relative_error(self) -> float:
        """Largest per-replica relative covariance error."""
        return float(np.max(self.relative_errors))


def _covariance_replica(task: WorkerTask, covariance: np.ndarray) -> tuple:
    """Worker: generate one replica and return (relative error, sample covariance, count).

    Module-level so it is picklable by ProcessPoolExecutor.
    """
    spec = CovarianceSpec.from_covariance_matrix(covariance)
    generator = RayleighFadingGenerator(spec, rng=task.seed)
    samples = generator.generate(task.n_samples)
    report = covariance_match_report(samples, covariance)
    return report.relative_error, report.empirical, task.n_samples


def run_covariance_ensemble(
    covariance: np.ndarray,
    *,
    n_replicas: int,
    samples_per_replica: int,
    seed: SeedLike = None,
    n_workers: Optional[int] = None,
) -> EnsembleResult:
    """Run ``n_replicas`` independent covariance-validation replicas.

    Parameters
    ----------
    covariance:
        Desired covariance matrix.
    n_replicas:
        Number of independent replicas.
    samples_per_replica:
        Samples generated by each replica.
    seed:
        Root seed; each replica receives an independent derived seed.
    n_workers:
        Process-pool size.  ``None`` or 1 runs sequentially in-process.
    """
    if n_replicas < 1:
        raise ParallelExecutionError(f"n_replicas must be >= 1, got {n_replicas}")
    if samples_per_replica < 1:
        raise ParallelExecutionError(
            f"samples_per_replica must be >= 1, got {samples_per_replica}"
        )
    covariance = np.asarray(covariance, dtype=complex)
    tasks = build_worker_tasks(n_replicas * samples_per_replica, n_replicas, seed)
    # build_worker_tasks balances counts; for the ensemble we want identical
    # per-replica counts, so rebuild the tasks with the fixed count.
    tasks = [
        WorkerTask(index=t.index, n_samples=samples_per_replica, seed=t.seed) for t in tasks
    ]

    results: List[tuple] = []
    if n_workers is None or n_workers <= 1:
        for task in tasks:
            results.append(_covariance_replica(task, covariance))
    else:
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(_covariance_replica, task, covariance) for task in tasks]
                results = [future.result() for future in futures]
        except Exception as exc:  # pragma: no cover - depends on pool environment
            raise ParallelExecutionError(f"ensemble execution failed: {exc}") from exc

    errors = np.array([r[0] for r in results])
    counts = np.array([r[2] for r in results], dtype=float)
    weighted = sum(r[1] * r[2] for r in results) / float(np.sum(counts))
    return EnsembleResult(
        relative_errors=errors,
        mean_covariance=weighted,
        total_samples=int(np.sum(counts)),
        n_replicas=len(results),
    )


def monte_carlo_covariance(
    covariance: np.ndarray,
    total_samples: int,
    *,
    n_workers: int = 1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Estimate the achieved covariance from ``total_samples`` split across workers.

    Convenience wrapper returning only the pooled sample covariance.
    """
    if total_samples < 1:
        raise ParallelExecutionError(f"total_samples must be >= 1, got {total_samples}")
    n_workers = max(1, int(n_workers))
    tasks = build_worker_tasks(total_samples, n_workers, seed)
    covariance = np.asarray(covariance, dtype=complex)
    results: List[tuple] = []
    if n_workers == 1:
        results = [_covariance_replica(task, covariance) for task in tasks]
    else:
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(_covariance_replica, task, covariance) for task in tasks]
                results = [future.result() for future in futures]
        except Exception as exc:  # pragma: no cover - depends on pool environment
            raise ParallelExecutionError(f"parallel generation failed: {exc}") from exc
    counts = np.array([r[2] for r in results], dtype=float)
    return sum(r[1] * r[2] for r in results) / float(np.sum(counts))


def run_plan_parallel(
    plan,
    n_samples: int,
    *,
    n_workers: Optional[int] = None,
    backend=None,
) -> List[GaussianBlock]:
    """Execute a :class:`repro.engine.SimulationPlan` across a process pool.

    .. deprecated::
        Thin wrapper over the session API — equivalent to
        ``Simulator(max_workers=n_workers, backend=backend).run(plan,
        n_samples)`` (in-process runs share the process-wide cache).  Prefer
        holding a :class:`repro.api.Simulator`, which also exposes the full
        :class:`repro.engine.BatchResult` (compile report, cache counters)
        this wrapper discards.

    The plan is split into at most ``n_workers`` contiguous sub-plans
    (:meth:`repro.engine.SimulationPlan.partition`); each worker batches its
    sub-plan through the engine, and the blocks are reassembled in plan
    order.  Because every entry draws from its own seeded stream, the result
    is bit-identical to executing the whole plan in one process.

    Parameters
    ----------
    plan:
        The simulation plan to execute.
    n_samples:
        Time samples per branch for every entry.
    n_workers:
        Process-pool size.  ``None`` or 1 runs in-process (sharing the
        process-wide decomposition cache).
    backend:
        Linalg backend name or instance forwarded to the session.
    """
    from ..api import Simulator
    from ..engine import SimulationPlan

    if not isinstance(plan, SimulationPlan):
        raise ParallelExecutionError(
            f"plan must be a SimulationPlan, got {type(plan).__name__}"
        )
    if plan.n_entries == 0:
        raise ParallelExecutionError("cannot execute an empty plan")
    if n_samples < 1:
        raise ParallelExecutionError(f"n_samples must be >= 1, got {n_samples}")

    with Simulator(max_workers=n_workers, backend=backend) as simulator:
        return list(simulator.run(plan, n_samples).blocks)
