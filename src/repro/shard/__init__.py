"""Sharded sweep execution over the shared compiled-plan cache (ROADMAP item 2).

``repro.shard`` partitions a :class:`~repro.engine.SimulationPlan` into
serializable :class:`PlanSlice`\\ s, executes them as independent worker
subprocesses that share one ``cache_dir`` (its ``plans/`` namespace is
content-addressed and digest-verified, so the filesystem *is* the
transport), and merges the per-shard results back into one plan-ordered
:class:`~repro.engine.BatchResult`.

Standing invariant 7 (see docs/ARCHITECTURE.md): a sharded run is
bit-identical to ``run(plan)`` in a single process — every sample byte,
regardless of shard count, worker interleaving, cache state, or
crash-and-retry history.  Enforced cross-process by
``tests/property/test_property_shard.py``.

Entry points: :func:`partition_plan` / :func:`merge_results` for the pure
pieces, :func:`run_sharded` for the subprocess orchestration, and the
``repro-experiments shard`` CLI on top.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Lazy (PEP 562): ``python -m repro.shard.worker`` imports this package
# first; an eager ``.runner`` import would load the worker module before
# runpy executes it as ``__main__`` (a RuntimeWarning in every worker).
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".runner": ("ShardRunResult", "run_sharded"),
        ".slicing": (
            "PlanSlice",
            "merge_compile_reports",
            "merge_results",
            "partition_plan",
            "slice_from_payload",
            "slice_to_payload",
        ),
    },
)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .runner import ShardRunResult, run_sharded
    from .slicing import (
        PlanSlice,
        merge_compile_reports,
        merge_results,
        partition_plan,
        slice_from_payload,
        slice_to_payload,
    )

__all__ = [
    "PlanSlice",
    "ShardRunResult",
    "merge_compile_reports",
    "merge_results",
    "partition_plan",
    "run_sharded",
    "slice_from_payload",
    "slice_to_payload",
]
