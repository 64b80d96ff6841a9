"""Parallel and streaming generation utilities.

The algorithm itself is a dense matrix multiply per time block, so the
natural scaling axes for large Monte-Carlo studies are

* **chunking** — generating a long record as a stream of fixed-size blocks
  with bounded memory (:mod:`repro.parallel.chunked`), and
* **ensembles** — running many independent replicas (different seeds) across
  processes and reducing their statistics
  (:mod:`repro.parallel.ensemble`).

Work division is handled by :mod:`repro.parallel.partition`, which splits
sample counts evenly and derives independent child seeds per worker so that
the parallel result is reproducible and statistically sound.
"""

from .partition import partition_counts, WorkerTask, build_worker_tasks
from .chunked import ChunkedGenerator, stream_envelope_statistics
from .ensemble import (
    EnsembleResult,
    run_covariance_ensemble,
    monte_carlo_covariance,
)

__all__ = [
    "partition_counts",
    "WorkerTask",
    "build_worker_tasks",
    "ChunkedGenerator",
    "stream_envelope_statistics",
    "EnsembleResult",
    "run_covariance_ensemble",
    "monte_carlo_covariance",
]
