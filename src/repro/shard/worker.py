"""The shard worker: one subprocess, one :class:`PlanSlice`, one engine run.

Launched by the runner as ``python -m repro.shard.worker <slice.json> --out
PREFIX [--cache-dir DIR] [--backend NAME]``.  The worker decodes its slice
payload, builds a private :class:`~repro.engine.SimulationEngine` whose
compiled-plan cache attaches to the caller-supplied shared ``cache_dir``,
compiles the sub-plan, executes, and publishes two files:

* ``PREFIX.npz`` — every block's samples and variances, exact bytes;
* ``PREFIX.json`` — slice addressing, labels, the SHA-256 of the exact
  slice-payload bytes it read (``slice_sha256``), the
  :class:`CompileReport`, and the compiled-plan cache counters the runner
  aggregates into its warm-hit report.

Both files are written to temporaries and published with
:func:`os.replace`; the ``.json`` goes last and acts as the commit marker,
so a worker killed mid-write never leaves output the runner could mistake
for a completed slice.  Progress lines go to stdout (start, done) for the
runner to stream.

Crash-tolerance hook
--------------------
Setting ``REPRO_SHARD_KILL_SLICE=<index>`` makes the worker whose slice
matches SIGKILL itself *after* executing but *before* publishing — the
deterministic fault-injection point of the sharding suite (the subprocess
analogue of the ``FlakyBackend``/``FlakyStore`` fail-at-exactly-N harness
in ``tests/conftest.py``): the slice's compiled plan is already in the
shared cache, its output is not, so a ``--retry-failed`` rerun must
recover bit-identically from the warm cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..engine import SimulationEngine
from ..engine.result import BatchResult
from .slicing import PlanSlice, slice_from_payload

__all__ = ["KILL_SLICE_ENV", "run_slice", "main"]

#: Fault-injection hook: the worker whose slice index matches SIGKILLs
#: itself between executing and publishing (see the module docs).
KILL_SLICE_ENV = "REPRO_SHARD_KILL_SLICE"

#: Compiled-plan cache counters each worker reports in
#: ``meta["tiers"]["plans"]`` (the runner sums them into ``tier_totals()``
#: as ``plans_<counter>``).
_TIER_COUNTERS = (
    "hits",
    "misses",
    "memory_hits",
    "disk_hits",
    "disk_misses",
    "disk_corruptions",
)


def run_slice(
    plan_slice: PlanSlice,
    n_samples: int,
    *,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> Tuple[BatchResult, Dict[str, Any]]:
    """Execute one slice and return ``(result, meta)``.

    ``meta`` carries everything the runner needs without unpickling engine
    internals: slice addressing, labels, the compile report, and the
    compiled-plan cache counters.
    """
    engine = SimulationEngine(backend=backend, cache_dir=cache_dir)
    result = engine.run(plan_slice.plan, n_samples)
    plans = engine.plan_cache.stats
    meta: Dict[str, Any] = {
        "index": plan_slice.index,
        "n_shards": plan_slice.n_shards,
        "start": plan_slice.start,
        "n_entries": plan_slice.n_entries,
        "n_samples": int(n_samples),
        "backend": result.backend,
        "execute_seconds": float(result.execute_seconds),
        "labels": [entry.label for entry in plan_slice.plan],
        "compile_report": asdict(result.compile_report),
        "tiers": {
            "plans": {name: getattr(plans, name) for name in _TIER_COUNTERS}
        },
    }
    return result, meta


def _publish(path: Path, write_payload) -> None:
    """Write via a same-directory temporary and an atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write_payload(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_outputs(out_prefix: Path, result: BatchResult, meta: Dict[str, Any]) -> None:
    arrays: Dict[str, np.ndarray] = {}
    for offset, block in enumerate(result.blocks):
        arrays[f"samples_{offset}"] = block.samples
        arrays[f"variances_{offset}"] = np.asarray(block.variances)
    npz_path = out_prefix.with_name(out_prefix.name + ".npz")
    json_path = out_prefix.with_name(out_prefix.name + ".json")
    _publish(npz_path, lambda handle: np.savez(handle, **arrays))
    # The .json is the commit marker: it references the already-published
    # .npz, so the runner accepts the slice only once both are durable.
    _publish(
        json_path,
        lambda handle: handle.write(json.dumps(meta, sort_keys=True).encode("utf8")),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Worker entry point: decode, run, publish.  Returns an exit code."""
    parser = argparse.ArgumentParser(prog="repro-shard-worker")
    parser.add_argument("slice_path", type=Path, help="slice payload JSON file")
    parser.add_argument(
        "--out", type=Path, required=True, help="output path prefix (.npz/.json)"
    )
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--backend", default=None)
    args = parser.parse_args(argv)

    raw = args.slice_path.read_bytes()
    plan_slice, n_samples = slice_from_payload(json.loads(raw.decode("utf8")))
    print(
        f"shard {plan_slice.index}/{plan_slice.n_shards}: start "
        f"entries={plan_slice.n_entries} n_samples={n_samples}",
        flush=True,
    )
    result, meta = run_slice(
        plan_slice,
        n_samples,
        cache_dir=args.cache_dir,
        backend=args.backend,
    )
    meta["slice_sha256"] = hashlib.sha256(raw).hexdigest()
    if os.environ.get(KILL_SLICE_ENV, "") == str(plan_slice.index):
        # Die without cleanup between execute and publish (see module docs).
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    _write_outputs(args.out, result, meta)
    report = result.compile_report
    print(
        f"shard {plan_slice.index}/{plan_slice.n_shards}: done "
        f"entries={plan_slice.n_entries} "
        f"decomp_misses={report.cache_misses} "
        f"plan_hits={report.plan_cache_hits} "
        f"execute={result.execute_seconds:.3f}s",
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
