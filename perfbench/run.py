"""One benchmark for the whole ``repro`` stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``workloads.py`` gives each one's shape and the caller it is
taken from): ``sweep-warm``, ``sweep-cold``, ``serve``, ``shard``.  The
seed fixes every input; the run sets up several times,
measures operations for ``--seconds``, checks a sample of outputs byte for
byte against a fresh cache-less engine, and prints one JSON object as the
last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: the 90th-percentile latency
of an operation (build a plan, get its samples back) and the median time
of a set-up (a fresh process from start to its first result; for serve,
server start-up plus warm-up).  ``--trace 1`` installs
layer probes (``probes.py``) in this process and in the server or shard
workers, and reports the mean self time per operation of each layer plus
cache-tier counts instead; ``traced_p90_ms`` against ``p90_ms`` is the
tracing overhead.  A probe whose target no longer exists fails a traced
run.  Scratch files live under ``.perfbench-work/`` in the repository root
and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: no src/repro next to perfbench/; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402


def p90_ms(outcome: workloads.Outcome) -> float:
    return float(np.percentile(outcome.latencies, 90)) * 1e3


def end_to_end(outcome: workloads.Outcome) -> dict:
    # On a shared virtual machine (measured on a 2-vCPU KVM guest)
    # neighbour load switches the CPU between phases about 1.5x apart in
    # speed, each longer than a run.  The median and the mean (so
    # throughput) jump with the mix of phases in a run; the 90th percentile
    # moved least, so it is the latency figure reported.  A shard run
    # completes only a handful of operations, so there it is close to the
    # maximum.
    return {
        "p90_ms": (p90_ms(outcome), "ms"),
        "setup_s": (statistics.median(outcome.setup_seconds), "s"),
    }


def per_layer(outcome: workloads.Outcome, spans) -> dict:
    split = probes.layer_split(spans, outcome.attempted)
    metrics = {
        ("frontdoor_ms" if layer == "op" else f"{layer}_ms"): (value, "ms")
        for layer, value in split.items()
    }
    metrics["traced_p90_ms"] = (p90_ms(outcome), "ms")
    compiles = max(1, len(outcome.reports))
    memory = sum(r.get("plan_memory_hits", 0) for r in outcome.reports)
    plan_hits = sum(r.get("plan_cache_hits", 0) for r in outcome.reports)
    metrics["decomposed"] = (
        sum(r.get("cache_misses", 0) for r in outcome.reports) / outcome.attempted,
        "count",
    )
    metrics["plan_memory_hit_ratio"] = (memory / compiles, "ratio")
    metrics["plan_disk_hit_ratio"] = ((plan_hits - memory) / compiles, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(
            seed=args.seed,
            seconds=args.seconds,
            work=work,
            recorder=probes.install() if args.trace else None,
        )
        outcome = workloads.WORKLOADS[args.workload](ctx)
        if not outcome.latencies:
            print("perfbench: no operation succeeded", file=sys.stderr)
            return 1
        if ctx.recorder is None:
            metrics = end_to_end(outcome)
        else:
            spans = ctx.recorder.spans + probes.load_spans(ctx.spans_dir)
            metrics = per_layer(outcome, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
