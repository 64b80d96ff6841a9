"""Process-pool Monte-Carlo ensembles.

Monte-Carlo validation of the generator (e.g. estimating the covariance error
distribution over many independent replicas) is embarrassingly parallel.  The
functions here fan replicas of one covariance matrix out over a
:class:`concurrent.futures` process pool, giving each worker an independent,
deterministic seed via :func:`repro.parallel.partition.build_worker_tasks`,
and reduce the results to a covariance matrix.  Plans are not partitioned
here: :meth:`repro.api.Simulator.run` executes them in-process and
:mod:`repro.shard` spreads them across worker processes.

The worker function is module-level (not a closure) so it can be pickled by
the default ``spawn``/``fork`` start methods.  With ``n_workers=1`` (or
``None``) the replicas run sequentially in-process, which keeps unit tests
fast and avoids pool start-up costs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.covariance import CovarianceSpec
from ..core.generator import RayleighFadingGenerator
from ..core.statistics import covariance_match_report
from ..exceptions import ParallelExecutionError
from ..types import SeedLike
from .partition import WorkerTask, build_worker_tasks

__all__ = [
    "EnsembleResult",
    "run_covariance_ensemble",
    "monte_carlo_covariance",
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


def _run_replicas(
    tasks: Sequence[WorkerTask],
    covariance: np.ndarray,
    n_workers: Optional[int],
    what: str,
) -> Tuple[List[tuple], np.ndarray]:
    """Run ``tasks`` in order, in-process or on a fresh process pool.

    Returns the per-task ``(relative error, sample covariance, count)``
    tuples and their count-weighted mean covariance.
    """
    if n_workers is None or n_workers <= 1:
        results = [_covariance_replica(task, covariance) for task in tasks]
    else:
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(_covariance_replica, task, covariance) for task in tasks]
                results = [future.result() for future in futures]
        except Exception as exc:  # pragma: no cover - depends on pool environment
            raise ParallelExecutionError(f"{what} failed: {exc}") from exc
    counts = np.array([r[2] for r in results], dtype=float)
    return results, sum(r[1] * r[2] for r in results) / float(np.sum(counts))


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

    results, mean = _run_replicas(tasks, covariance, n_workers, "ensemble execution")
    return EnsembleResult(
        relative_errors=np.array([r[0] for r in results]),
        mean_covariance=mean,
        total_samples=int(sum(r[2] for r in results)),
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
    return _run_replicas(tasks, covariance, n_workers, "parallel generation")[1]
