"""Result container for batched execution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..types import EnvelopeBlock, GaussianBlock
from .compile import CompileReport

__all__ = ["BatchResult"]


@dataclass(frozen=True)
class BatchResult:
    """Samples for every entry of an executed plan.

    Attributes
    ----------
    blocks:
        One :class:`repro.types.GaussianBlock` per plan entry, in plan
        order.  Each block is bit-identical to what a standalone
        :class:`repro.core.generator.RayleighFadingGenerator` seeded with the
        entry's seed would produce.
    n_samples:
        Time samples per branch in this result.
    compile_report:
        Statistics of the compilation pass that produced the coloring
        matrices (cache hits/misses, dedup counts).
    execute_seconds:
        Wall-clock time of the execution pass.
    peak_alloc_bytes:
        Peak memory allocated by the execute pass (tracemalloc), or ``None``
        when the run was not traced (``measure_allocation=False``, the
        default).
    """

    blocks: Tuple[GaussianBlock, ...]
    n_samples: int
    compile_report: CompileReport
    execute_seconds: float
    peak_alloc_bytes: Optional[int] = None

    @property
    def n_entries(self) -> int:
        """Number of plan entries in this result."""
        return len(self.blocks)

    def block(self, index: int) -> GaussianBlock:
        """The Gaussian block of the entry at ``index``."""
        return self.blocks[index]

    def envelopes(self) -> Tuple[EnvelopeBlock, ...]:
        """Rayleigh envelope blocks for every entry."""
        return tuple(block.envelopes() for block in self.blocks)

    def summary(self) -> str:
        """Human-readable run summary, including per-tier cache stats.

        One line per pipeline stage: what ran, how the
        decomposition cache behaved for this run's compile pass (hits,
        misses, deduplicated entries), and — when the compilation was served
        whole from the compiled-plan cache — a line naming the tier that
        served it (memory or disk; in that case the decomposition counters
        are zero by construction: no per-matrix lookups ran at all).  Traced
        runs (``measure_allocation=True``) also report the execute pass's
        peak allocation.
        """
        report = self.compile_report
        lookups = report.cache_hits + report.cache_misses
        hit_rate = report.cache_hits / lookups if lookups else 0.0
        lines = [
            f"BatchResult: {self.n_entries} entries x {self.n_samples} samples",
            f"  compile: {report.n_groups} groups, "
            f"{report.n_unique_matrices} unique matrices "
            f"({report.deduplicated} deduplicated), "
            f"{report.compile_seconds:.6f} s",
        ]
        if report.plan_cache_hits:
            memory = report.plan_memory_hits
            disk = report.plan_cache_hits - memory
            if memory and disk:
                source = f"{memory} memory tier / {disk} disk"
            elif memory:
                source = "memory tier"
            else:
                source = "disk"
            lines.append(
                f"  compiled-plan cache: {report.plan_cache_hits} hit(s) — "
                f"whole plan served from {source}, no decompositions computed"
            )
        lines.append(
            f"  decomposition cache: {report.cache_hits} hits / "
            f"{report.cache_misses} misses ({hit_rate:.1%} hit rate)"
        )
        if report.doppler_entries:
            # On a plan-cache hit nothing was constructed this pass — the
            # filters were restored from the artifact.
            resolved = "restored" if report.plan_cache_hits else "built"
            lines.append(
                f"  doppler filters: {report.doppler_filters_built} {resolved} / "
                f"{report.doppler_entries} entries served"
            )
        lines.append(f"  execute: {self.execute_seconds:.6f} s")
        if self.peak_alloc_bytes is not None:
            lines.append(
                f"  execute peak allocation: {self.peak_alloc_bytes} bytes "
                f"({self.peak_alloc_bytes / (1024 * 1024):.2f} MiB)"
            )
        return "\n".join(lines)
