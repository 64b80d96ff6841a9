"""Plan partitioning and result reassembly for sharded sweeps.

A *shard* is one contiguous slice of a :class:`~repro.engine.SimulationPlan`
executed by an independent worker process against a shared artifact
``cache_dir`` (see :mod:`repro.shard.runner`).  This module owns the
pure pieces of that story, the two wire formats among them:

* :func:`partition_plan` — split a plan into at most ``n_shards``
  contiguous :class:`PlanSlice`\\ s (the same balanced-counts contract as
  :meth:`SimulationPlan.partition`), each remembering where its entries
  live in the original plan;
* :func:`slice_to_payload` / :func:`slice_from_payload` — a slice's wire
  bytes and their decoder: the serving layer's plan payload
  (:func:`repro.service.protocol.plan_to_payload`) plus a ``"slice"``
  object, as sorted-key JSON.  Per-entry seeds (``None``, ints, and live
  numpy Generators), labels, Doppler specs, fading specs and the
  covariances' raw ``complex128`` bytes all round-trip bit-exactly, so a
  decoded slice hashes to the same compiled-plan cache key as the
  in-process original;
* ``_sample_record`` / ``_read_sample_record`` — a worker's result as one
  raw ``.bin`` record, every block's samples as little-endian
  ``complex128`` bytes back to back, described by marker fields:
  ``layout`` (each block's ``shape`` and ``variances``) and ``crc32``.
  The reader checks the layout, and the file size against it, before it
  allocates, reads the file with one ``readinto`` into one array,
  verifies the CRC and hands out one view per block; anything torn reads
  as ``None``;
* :func:`merge_results` — reassemble per-shard :class:`BatchResult`\\ s
  into one plan-ordered result with summed :class:`CompileReport`
  counters, restamping whole-plan ``plan_index`` metadata.

Sharding is the package's one multiprocess path for plans:
:meth:`repro.api.Simulator.run` always executes in-process.

Because slices are contiguous and the compiled-plan cache key folds every
entry's decomposition key, Doppler tuple and ``fading_token`` (but not
seeds or labels), two slices of the same plan get *distinct* plan-tier
entries and never collide with an unrelated plan — key purity is
regression-tested by ``tests/unit/test_shard.py``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import CompileReport, SimulationPlan
from ..engine.result import BatchResult
from ..exceptions import SpecificationError
from ..service.protocol import int_from_payload, plan_from_payload, plan_to_payload
from ..types import GaussianBlock

__all__ = [
    "PlanSlice",
    "partition_plan",
    "slice_to_payload",
    "slice_from_payload",
    "merge_compile_reports",
    "merge_results",
]


@dataclass(frozen=True)
class PlanSlice:
    """One contiguous shard of a plan, addressable back into the original.

    Attributes
    ----------
    index:
        Shard number in ``[0, n_shards)``.
    n_shards:
        How many slices the plan was partitioned into (after dropping
        empties; see :func:`partition_plan`).
    start:
        Index of this slice's first entry in the *original* plan, so a
        merged result can restore whole-plan ``plan_index`` metadata.
    plan:
        The sub-plan holding this slice's entries, order preserved.
    """

    index: int
    n_shards: int
    start: int
    plan: SimulationPlan

    @property
    def n_entries(self) -> int:
        """Number of plan entries in this slice."""
        return len(self.plan)


def partition_plan(plan: SimulationPlan, n_shards: int) -> List[PlanSlice]:
    """Split ``plan`` into at most ``n_shards`` contiguous slices.

    Entry order is preserved, slice sizes differ by at most one, and empty
    slices are dropped — identical to :meth:`SimulationPlan.partition`,
    which this wraps — so partitioning a 5-entry plan 8 ways yields 5
    one-entry slices, never empty workers.
    """
    if n_shards < 1:
        raise SpecificationError(f"n_shards must be >= 1, got {n_shards}")
    if len(plan) == 0:
        raise SpecificationError("cannot partition an empty plan")
    subplans = plan.partition(n_shards)
    slices: List[PlanSlice] = []
    start = 0
    for index, subplan in enumerate(subplans):
        slices.append(
            PlanSlice(index=index, n_shards=len(subplans), start=start, plan=subplan)
        )
        start += len(subplan)
    return slices


#: Wire dtype of samples in ``.bin`` records.
_C16 = np.dtype("<c16")


def slice_to_payload(plan_slice: PlanSlice, n_samples: int) -> bytes:
    """Encode one slice (plus the run's sample count) as its wire bytes.

    The bytes are the ASCII text of ``json.dumps(..., sort_keys=True)`` of
    :func:`~repro.service.protocol.plan_to_payload` plus a ``"slice"``
    object: exactly what the runner writes to the slice file and hashes
    into the ``slice_sha256`` a ``--retry-failed`` rerun compares.
    """
    payload = plan_to_payload(plan_slice.plan, n_samples)
    payload["slice"] = {
        "index": int(plan_slice.index),
        "n_shards": int(plan_slice.n_shards),
        "start": int(plan_slice.start),
    }
    return json.dumps(payload, sort_keys=True).encode("ascii")


def slice_from_payload(data: bytes) -> Tuple[PlanSlice, int]:
    """Decode :func:`slice_to_payload` bytes back to ``(slice, n_samples)``.

    Anything malformed, the JSON text itself included, raises
    :class:`SpecificationError`.
    """
    try:
        payload = json.loads(data)
    except (TypeError, ValueError, RecursionError) as exc:  # not bytes, UTF-8 or JSON
        raise SpecificationError(f"slice payload is not JSON: {exc}") from exc
    plan, n_samples = plan_from_payload(payload)
    meta = payload.get("slice")
    if not isinstance(meta, dict):
        raise SpecificationError("slice payload needs a 'slice' object")
    try:
        index = int_from_payload(meta["index"], "slice.index")
        n_shards = int_from_payload(meta["n_shards"], "slice.n_shards")
        start = int_from_payload(meta["start"], "slice.start")
    except KeyError as exc:
        raise SpecificationError(f"malformed slice metadata: {exc}") from exc
    return PlanSlice(index=index, n_shards=n_shards, start=start, plan=plan), n_samples


def _sample_record(
    blocks: Sequence[GaussianBlock],
) -> Tuple[List[np.ndarray], Dict[str, Any]]:
    """A shard's ``.bin`` record: the sample arrays to write back to back,
    and the marker fields describing them.

    ``layout`` lists each block's ``shape`` and ``variances`` (JSON floats,
    which round-trip doubles exactly); ``crc32`` is the
    :func:`zlib.crc32` of the samples.
    """
    samples = [np.ascontiguousarray(block.samples, dtype=_C16) for block in blocks]
    crc = 0
    for block_samples in samples:
        crc = zlib.crc32(block_samples, crc)
    layout = [
        {
            "shape": list(block_samples.shape),
            "variances": np.asarray(block.variances, dtype=float).tolist(),
        }
        for block_samples, block in zip(samples, blocks)
    ]
    return samples, {"layout": layout, "crc32": crc}


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_sample_record(
    path: Path, layout: Any, crc32: Any, n_entries: int
) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """``(samples, variances)`` per block of a ``.bin`` record, or ``None``.

    The marker's ``layout`` is checked, and the file's size against it,
    before anything is allocated, so a marker declaring more samples than
    the file holds costs nothing; the samples are read with one
    ``readinto`` into one array, verified against ``crc32`` and handed out
    as views.  Raises :class:`OSError` when the file cannot be read.
    """
    if not isinstance(layout, list) or len(layout) != n_entries or not _is_count(crc32):
        return None
    shapes: List[Tuple[int, int]] = []
    variances: List[np.ndarray] = []
    for item in layout:
        if not isinstance(item, dict):
            return None
        shape, block_variances = item.get("shape"), item.get("variances")
        if (
            not isinstance(shape, list)
            or len(shape) != 2
            or not all(_is_count(dim) for dim in shape)
            or not isinstance(block_variances, list)
            or len(block_variances) != shape[0]
            or not all(isinstance(value, float) for value in block_variances)
        ):
            return None
        shapes.append((shape[0], shape[1]))
        variances.append(np.array(block_variances, dtype=float))
    sizes = [rows * columns for rows, columns in shapes]
    n_bytes = _C16.itemsize * sum(sizes)
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size != n_bytes:
            return None
        flat = np.empty(sum(sizes), dtype=_C16)
        if handle.readinto(flat.view(np.uint8)) != n_bytes or handle.read(1):
            return None
    if zlib.crc32(flat) != crc32:
        return None
    blocks = []
    offset = 0
    for shape, size, block_variances in zip(shapes, sizes, variances):
        blocks.append((flat[offset : offset + size].reshape(shape), block_variances))
        offset += size
    return blocks


def merge_compile_reports(reports: Sequence[CompileReport]) -> CompileReport:
    """Sum per-shard compile counters into one whole-plan report.

    Cache and dedup counters add (every shard compiled independently);
    ``compile_seconds`` is the maximum because the compiles ran
    concurrently.
    """
    if not reports:
        raise SpecificationError("cannot merge an empty report sequence")
    return CompileReport(
        n_entries=sum(r.n_entries for r in reports),
        n_groups=sum(r.n_groups for r in reports),
        n_unique_matrices=sum(r.n_unique_matrices for r in reports),
        cache_hits=sum(r.cache_hits for r in reports),
        cache_misses=sum(r.cache_misses for r in reports),
        compile_seconds=max(r.compile_seconds for r in reports),
        doppler_filters_built=sum(r.doppler_filters_built for r in reports),
        doppler_entries=sum(r.doppler_entries for r in reports),
        doppler_filter_cache_hits=sum(r.doppler_filter_cache_hits for r in reports),
        plan_cache_hits=sum(r.plan_cache_hits for r in reports),
        plan_memory_hits=sum(r.plan_memory_hits for r in reports),
        plan_inflight_hits=sum(r.plan_inflight_hits for r in reports),
    )


def merge_results(
    slices: Sequence[PlanSlice],
    partials: Sequence[BatchResult],
    *,
    n_samples: int,
    wall_seconds: float = 0.0,
) -> BatchResult:
    """Reassemble per-shard results into one plan-ordered :class:`BatchResult`.

    ``partials[k]`` must be the result of ``slices[k]``; slices may arrive
    in any order (they are sorted by ``start``) but must tile the original
    plan contiguously — a gap or overlap means a shard went missing and is
    an error, not a silent truncation.  Block metadata gets whole-plan
    ``plan_index`` values restored from each slice's ``start``.
    """
    if len(slices) != len(partials):
        raise SpecificationError(
            f"got {len(partials)} results for {len(slices)} slices"
        )
    if not slices:
        raise SpecificationError("cannot merge zero slices")
    ordered = sorted(zip(slices, partials), key=lambda pair: pair[0].start)
    cursor = 0
    blocks: List[GaussianBlock] = []
    for plan_slice, partial in ordered:
        if plan_slice.start != cursor:
            raise SpecificationError(
                f"slice {plan_slice.index} starts at entry {plan_slice.start}, "
                f"expected {cursor} (missing or overlapping shard)"
            )
        if len(partial.blocks) != plan_slice.n_entries:
            raise SpecificationError(
                f"slice {plan_slice.index} produced {len(partial.blocks)} blocks "
                f"for {plan_slice.n_entries} entries"
            )
        for offset, block in enumerate(partial.blocks):
            block.metadata["plan_index"] = plan_slice.start + offset
            blocks.append(block)
        cursor += plan_slice.n_entries
    report = merge_compile_reports([partial.compile_report for _, partial in ordered])
    return BatchResult(
        blocks=tuple(blocks),
        n_samples=int(n_samples),
        compile_report=report,
        execute_seconds=float(wall_seconds),
    )
