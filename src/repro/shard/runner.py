"""The subprocess shard runner: K workers, one shared compiled-plan cache.

:func:`run_sharded` partitions a plan (:func:`~repro.shard.partition_plan`),
writes each slice's wire payload into a *work directory*, and executes the
slices as real subprocesses (``python -m repro.shard.worker``) that all
attach the same ``cache_dir`` — the subprocess form of ROADMAP item 2's
multi-host story, where the transport is the filesystem.

Scheduling: every pending worker starts and compiles at once.  Slices
share no artifacts except identical slice plans, which a worker loads
from the shared ``plans/`` tier when an earlier run (or a faster worker)
published them.

Concurrent workers would oversubscribe the cores with one BLAS thread
pool each, so each worker gets ``max(1, cores // workers)`` BLAS threads
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``)
unless the caller's environment or ``extra_env`` already sets them.

Crash tolerance: a worker that dies (non-zero exit, SIGKILL, missing or
unparseable output) marks its slice *failed by index*; the survivors are
still collected, and the merged result is only produced when every slice
completed.  Re-running with ``retry_failed=True`` against the same
``work_dir`` reloads completed slices from their published outputs and
re-executes only the failed ones — against the now-warm ``plans/`` tier,
so the retry is cheap and, by standing invariant 7, bit-identical.  An
output is reused only when its worker read exactly the slice payload this
run would write (``slice_sha256``), so a different ``n_samples`` or
different seeds always recompute.

Worker environments prepend this package's source root to ``PYTHONPATH``
so ``python -m repro.shard.worker`` resolves even when the parent runs
from a source checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import CompileReport, SimulationPlan
from ..engine.result import BatchResult
from ..exceptions import SpecificationError
from ..types import GaussianBlock
from .slicing import PlanSlice, merge_results, partition_plan, slice_to_payload

__all__ = ["ShardRunResult", "run_sharded"]

#: ``progress(slice_index, line)`` receives each worker stdout line.
ProgressFn = Callable[[int, str], None]


@dataclass
class ShardRunResult:
    """Everything one sharded run produced.

    Attributes
    ----------
    slices:
        The plan slices, in shard order.
    results:
        Per-slice :class:`BatchResult` (``None`` for a failed slice).
    metas:
        Per-slice worker metadata dicts (``None`` for a failed slice):
        slice addressing, compile report, per-tier cache counters.
    failed:
        Indices of slices whose worker did not publish a valid output.
    merged:
        The plan-ordered merged result — only when no slice failed.
    wall_seconds:
        Caller-observed wall clock of the whole run.
    work_dir:
        Directory holding slice payloads and worker outputs; pass it back
        with ``retry_failed=True`` to resume a partially failed run.
    """

    slices: Tuple[PlanSlice, ...]
    results: Tuple[Optional[BatchResult], ...]
    metas: Tuple[Optional[Dict[str, Any]], ...]
    failed: Tuple[int, ...]
    merged: Optional[BatchResult]
    wall_seconds: float
    work_dir: Path
    _tier_totals: Optional[Dict[str, int]] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether every slice completed and merged."""
        return not self.failed and self.merged is not None

    def tier_totals(self) -> Dict[str, int]:
        """Per-tier cache counters summed over the completed shards."""
        if self._tier_totals is None:
            totals: Dict[str, int] = {}
            for meta in self.metas:
                if meta is None:
                    continue
                for tier, counters in meta.get("tiers", {}).items():
                    for name, value in counters.items():
                        key = f"{tier}_{name}"
                        totals[key] = totals.get(key, 0) + int(value)
                report = meta.get("compile_report", {})
                for name in ("cache_hits", "cache_misses", "plan_cache_hits"):
                    totals[name] = totals.get(name, 0) + int(report.get(name, 0))
            self._tier_totals = totals
        return dict(self._tier_totals)


#: Thread-count variables of the BLAS builds numpy may link against.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env(extra_env: Optional[Dict[str, str]], n_workers: int) -> Dict[str, str]:
    env = dict(os.environ)
    if extra_env:
        env.update(extra_env)
    # n_workers concurrent BLAS pools share the cores instead of each
    # sizing itself to all of them; a value the caller set still wins.
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    threads = str(max(1, cores // max(1, n_workers)))
    for name in _BLAS_THREAD_VARS:
        env.setdefault(name, threads)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


def _load_output(
    out_prefix: Path, plan_slice: PlanSlice, slice_sha256: str
) -> Optional[Tuple[BatchResult, Dict[str, Any]]]:
    """Read one worker's published output; ``None`` if absent or unusable.

    ``slice_sha256`` is the digest of the slice payload this run writes;
    an output whose worker read any other payload is stale.
    """
    json_path = out_prefix.with_name(out_prefix.name + ".json")
    npz_path = out_prefix.with_name(out_prefix.name + ".npz")
    try:
        meta = json.loads(json_path.read_text(encoding="utf8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(meta, dict)
        or meta.get("slice_sha256") != slice_sha256
        or meta.get("index") != plan_slice.index
        or meta.get("start") != plan_slice.start
        or meta.get("n_entries") != plan_slice.n_entries
    ):
        return None
    labels = meta.get("labels")
    if labels is None:
        labels = [None] * plan_slice.n_entries
    elif not isinstance(labels, list) or len(labels) != plan_slice.n_entries:
        return None
    try:
        with np.load(npz_path, allow_pickle=False) as archive:
            blocks: List[GaussianBlock] = []
            for offset in range(plan_slice.n_entries):
                blocks.append(
                    GaussianBlock(
                        samples=archive[f"samples_{offset}"],
                        variances=archive[f"variances_{offset}"],
                        metadata={
                            "plan_index": plan_slice.start + offset,
                            "label": labels[offset],
                        },
                    )
                )
        report = CompileReport(**meta["compile_report"])
        result = BatchResult(
            blocks=tuple(blocks),
            n_samples=int(meta["n_samples"]),
            compile_report=report,
            execute_seconds=float(meta.get("execute_seconds", 0.0)),
            backend=str(meta.get("backend", "numpy")),
        )
    except (OSError, IndexError, KeyError, TypeError, ValueError):
        # A half-written or stale output reads as a failed slice, never an
        # error — the retry path recomputes it.
        return None
    return result, meta


def _spawn(
    slice_path: Path,
    out_prefix: Path,
    *,
    cache_dir: Optional[Union[str, Path]],
    backend: Optional[str],
    env: Dict[str, str],
) -> subprocess.Popen:
    argv = [
        sys.executable,
        "-m",
        "repro.shard.worker",
        str(slice_path),
        "--out",
        str(out_prefix),
    ]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if backend is not None:
        argv += ["--backend", str(backend)]
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _drain(
    process: subprocess.Popen,
    index: int,
    progress: Optional[ProgressFn],
    timeout: float,
) -> int:
    """Stream a worker's stdout to ``progress`` and return its exit code.

    The deadline is enforced by a timer that kills the worker, so a worker
    that goes silent cannot hold the read loop past ``timeout``; a killed
    worker returns -1.
    """
    expired = threading.Event()

    def _expire() -> None:
        expired.set()
        process.kill()

    timer = threading.Timer(max(0.0, timeout), _expire)
    timer.daemon = True
    timer.start()
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if progress is not None:
                progress(index, line.rstrip("\n"))
        code = process.wait()
    finally:
        timer.cancel()
    return -1 if expired.is_set() else code


def run_sharded(
    plan: SimulationPlan,
    n_samples: int,
    *,
    n_shards: int,
    cache_dir: Union[None, str, Path] = None,
    backend: Optional[str] = None,
    work_dir: Union[None, str, Path] = None,
    retry_failed: bool = False,
    progress: Optional[ProgressFn] = None,
    timeout: float = 600.0,
    extra_env: Optional[Dict[str, str]] = None,
) -> ShardRunResult:
    """Execute ``plan`` as ``n_shards`` subprocess workers and merge.

    Parameters beyond the obvious: ``work_dir`` holds slice payloads and
    worker outputs (a fresh temporary directory when ``None``);
    ``retry_failed`` reloads valid outputs already in ``work_dir`` and
    only re-runs slices without one; ``timeout`` bounds each worker from
    its start; ``extra_env`` adds variables to worker
    environments (the fault-injection tests inject the worker kill hook
    through it).
    """
    if n_samples < 1:
        raise SpecificationError(f"n_samples must be >= 1, got {n_samples}")
    started = time.perf_counter()
    slices = partition_plan(plan, n_shards)
    work = Path(work_dir) if work_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-shard-")
    )
    work.mkdir(parents=True, exist_ok=True)

    results: List[Optional[BatchResult]] = [None] * len(slices)
    metas: List[Optional[Dict[str, Any]]] = [None] * len(slices)
    digests: List[str] = []
    pending: List[int] = []
    for plan_slice in slices:
        payload = json.dumps(slice_to_payload(plan_slice, n_samples), sort_keys=True)
        digests.append(hashlib.sha256(payload.encode("utf8")).hexdigest())
        out_prefix = work / f"shard_{plan_slice.index}"
        if retry_failed:
            loaded = _load_output(out_prefix, plan_slice, digests[-1])
            if loaded is not None:
                results[plan_slice.index], metas[plan_slice.index] = loaded
                if progress is not None:
                    progress(
                        plan_slice.index,
                        f"shard {plan_slice.index}/{len(slices)}: reused "
                        f"published output ({plan_slice.n_entries} entries)",
                    )
                continue
        (work / f"slice_{plan_slice.index}.json").write_text(payload, encoding="utf8")
        pending.append(plan_slice.index)

    env = _worker_env(extra_env, len(pending))

    def _collect(index: int, process: subprocess.Popen) -> None:
        code = _drain(process, index, progress, timeout)
        if code != 0 and progress is not None:
            progress(index, f"shard {index}/{len(slices)}: FAILED (exit {code})")
        if code == 0:
            loaded = _load_output(work / f"shard_{index}", slices[index], digests[index])
            if loaded is not None:
                results[index], metas[index] = loaded

    processes = [
        _spawn(
            work / f"slice_{index}.json",
            work / f"shard_{index}",
            cache_dir=cache_dir,
            backend=backend,
            env=env,
        )
        for index in pending
    ]
    threads = [
        threading.Thread(target=_collect, args=(index, process))
        for index, process in zip(pending, processes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    failed = tuple(
        plan_slice.index for plan_slice in slices if results[plan_slice.index] is None
    )
    merged: Optional[BatchResult] = None
    wall = time.perf_counter() - started
    if not failed:
        merged = merge_results(
            slices,
            [results[plan_slice.index] for plan_slice in slices],
            n_samples=n_samples,
            wall_seconds=wall,
            backend=next(
                (meta["backend"] for meta in metas if meta is not None), "numpy"
            ),
        )
    return ShardRunResult(
        slices=tuple(slices),
        results=tuple(results),
        metas=tuple(metas),
        failed=failed,
        merged=merged,
        wall_seconds=wall,
        work_dir=work,
    )
