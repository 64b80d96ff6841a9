"""Command line interface: ``python -m repro`` / ``repro-experiments``.

Subcommands
-----------
``list``
    Print the registered experiment identifiers.
``run <id> [...]``
    Run one or more experiments and print their reports.  ``run all`` runs
    the full suite.
``export <id> --output <dir>``
    Run one experiment and write its report (``.txt``) and any numeric series
    (``.csv``) into the given directory.
``batch [--batch-sizes 1,16,256] [--branches N] [--samples n] [--repeats k]``
    Run the batched-engine comparison sweep (the ``scaling-batch``
    experiment) with custom batch sizes: looped single-spec generation vs.
    the plan → compile → execute engine, with cache hits and speedups
    reported.  With ``--doppler`` (plus optional ``--fm`` and ``--points``)
    the sweep runs the Doppler-mode analogue (``scaling-doppler-batch``):
    looped real-time generation vs. the batched IDFT substrate, with the
    Doppler filter-reuse counters (filters built vs. entries served)
    reported alongside the speedups.  With ``--model`` (plus ``--shape``
    and optional ``--shadow-sigma``) the snapshot sweep applies one fading
    model from the zoo to every entry and checks the batched samples
    against the scalar reference oracle.
``suite [name] [--list] [--file workload.json] [--samples n]``
    Run one declarative fading-model workload through the batched engine:
    a shipped named suite (one per registered model) or a workload JSON
    file (schema in :mod:`repro.models.workloads`), printing a JSON
    summary.
``serve [--host H] [--port P] [--max-queue Q] [--dispatch-slots S] [--cache-dir DIR]``
    Run the envelope-serving HTTP front end over one warm ``Simulator``
    session (see the "Serving layer" section of ``docs/ARCHITECTURE.md``):
    plan submission, status polling, cancellation, and streamed envelope
    delivery, with a bounded submission queue (``429`` + ``Retry-After``
    under backpressure), per-client fair scheduling, and in-flight
    request coalescing.  The session persists compiled plans under
    ``--cache-dir`` (in memory only without it).
``shard --shards K --cache-dir DIR [--entries B] [...]``
    Run a deterministic sweep as ``K`` independent worker subprocesses
    sharing one ``cache_dir`` (see the "Sharding layer" section of
    ``docs/ARCHITECTURE.md``): all workers start and compile at once, and
    a slice whose compiled plan is already in the shared ``plans/`` tier
    loads it instead.  Each worker gets an equal share of the cores' BLAS
    threads unless the environment sets them.  Streams per-shard progress,
    prints compiled-plan hit totals, exits non-zero if any slice failed, and
    resumes a partially failed run with ``--retry-failed`` (a slice is
    reused only if its payload is unchanged).  ``--check`` verifies
    the merged result byte-for-byte against an in-process solo run
    (standing invariant 7).
``cache {stats,clear} --cache-dir DIR``
    Inspect or empty the persistent cache — its one namespace, compiled
    plans (``plans/``), under the directory ``--cache-dir`` names.

All output is plain text; the experiments regenerate the paper's tables and
figures as numbers (and ASCII traces with ``--ascii-plots``).

``--version`` prints the package version.  The ``batch`` summary ends with the decomposition cache's aggregate
hit/miss counters for the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ._version import __version__

__all__ = ["main", "build_parser"]


def _cache_dir_argument(parser: argparse.ArgumentParser, *, required: bool) -> None:
    """Add the shared ``--cache-dir`` option (persistent artifact cache)."""
    parser.add_argument(
        "--cache-dir",
        type=Path,
        required=required,
        default=None,
        help="directory of the persistent compiled-plan cache (its plans/ "
        "namespace)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation of Tran et al., IPDPS 2005 "
        "(correlated Rayleigh fading envelope generation).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment identifiers (or 'all')",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    run_parser.add_argument(
        "--ascii-plots",
        action="store_true",
        help="render numeric series as ASCII plots in the report",
    )

    export_parser = subparsers.add_parser(
        "export", help="run an experiment and write its report and series to files"
    )
    export_parser.add_argument("experiment", help="experiment identifier")
    export_parser.add_argument(
        "--output", type=Path, required=True, help="output directory"
    )
    export_parser.add_argument("--seed", type=int, default=None)

    batch_parser = subparsers.add_parser(
        "batch", help="run the batched-engine vs. looped-generation sweep"
    )
    batch_parser.add_argument(
        "--batch-sizes",
        default="1,16,256",
        help="comma-separated batch sizes B to sweep (default: 1,16,256)",
    )
    batch_parser.add_argument(
        "--branches", type=int, default=4, help="branches N per scenario (default: 4)"
    )
    batch_parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="time samples per branch (default: 64; not accepted with "
        "--doppler, whose record length is the IDFT block --points)",
    )
    batch_parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repeats per timing (default: 3)"
    )
    batch_parser.add_argument("--seed", type=int, default=None)
    batch_parser.add_argument(
        "--doppler",
        action="store_true",
        help="run the Doppler-mode sweep (batched IDFT substrate vs. looped "
        "real-time generation) instead of the snapshot sweep",
    )
    batch_parser.add_argument(
        "--fm",
        type=float,
        default=0.05,
        help="normalized maximum Doppler frequency f_m for --doppler (default: 0.05)",
    )
    batch_parser.add_argument(
        "--points",
        type=int,
        default=128,
        help="IDFT block length M for --doppler (default: 128)",
    )
    batch_parser.add_argument(
        "--model",
        default=None,
        help="fading model applied to every entry (rayleigh, rician, "
        "nakagami, weibull); the looped baseline is checked through the "
        "scalar reference oracle",
    )
    batch_parser.add_argument(
        "--shape",
        type=float,
        default=None,
        help="shape parameter of --model (Rician K, Nakagami m, Weibull k)",
    )
    batch_parser.add_argument(
        "--shadow-sigma",
        type=float,
        default=0.0,
        help="log-normal shadowing spread in dB composed on top of --model "
        "(default: 0, disabled)",
    )

    suite_parser = subparsers.add_parser(
        "suite",
        help="run a named fading-model workload suite (or a workload JSON file)",
        description=(
            "Run one declarative workload through the batched engine: a "
            "shipped named suite (one per fading model; see --list) or a "
            "workload JSON file (see repro.models.workloads for the schema). "
            "Prints a JSON summary with per-entry mean envelope powers and "
            "the fading metadata the execute kernel stamped on every block."
        ),
    )
    suite_parser.add_argument(
        "suite",
        nargs="?",
        default=None,
        help="named suite to run (see --list)",
    )
    suite_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_suites",
        help="list the shipped workload suites and exit",
    )
    suite_parser.add_argument(
        "--file",
        type=Path,
        default=None,
        help="run a workload JSON file instead of a named suite",
    )
    suite_parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="override the workload's n_samples",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the envelope-serving HTTP front end",
        description=(
            "Start a long-running HTTP server over one warm Simulator "
            "session: plan submission (POST /v1/plans), status polling, "
            "cancellation, and streamed envelope delivery, with a bounded "
            "submission queue (429 + Retry-After under backpressure), "
            "per-client fair scheduling, and in-flight request coalescing."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8437, help="bind port (default: 8437)"
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="queued-flight bound before submissions are rejected with "
        "backpressure (default: 64)",
    )
    serve_parser.add_argument(
        "--dispatch-slots",
        type=int,
        default=4,
        help="flights executing concurrently (default: 4)",
    )
    _cache_dir_argument(serve_parser, required=False)

    shard_parser = subparsers.add_parser(
        "shard",
        help="run a sweep as subprocess shards over one shared artifact cache",
        description=(
            "Partition a deterministic sweep plan into slices and execute "
            "them as independent worker subprocesses sharing one cache_dir. "
            "All workers start and compile at once; a slice whose compiled "
            "plan is already in the shared plans/ tier loads it. The merged "
            "result is bit-identical to a single-process run (standing "
            "invariant 7; verify in-process with --check)."
        ),
    )
    shard_parser.add_argument(
        "--shards", type=int, default=2, help="worker subprocesses K (default: 2)"
    )
    shard_parser.add_argument(
        "--entries", type=int, default=8, help="sweep entries B (default: 8)"
    )
    shard_parser.add_argument(
        "--branches", type=int, default=4, help="branches N per entry (default: 4)"
    )
    shard_parser.add_argument(
        "--samples", type=int, default=64, help="time samples per branch (default: 64)"
    )
    shard_parser.add_argument("--seed", type=int, default=None)
    shard_parser.add_argument(
        "--doppler-every",
        type=int,
        default=0,
        help="make every k-th entry a Doppler entry sharing one filter "
        "(default: 0, snapshot-only)",
    )
    shard_parser.add_argument(
        "--fm",
        type=float,
        default=0.05,
        help="normalized Doppler f_m for --doppler-every entries (default: 0.05)",
    )
    shard_parser.add_argument(
        "--points",
        type=int,
        default=64,
        help="IDFT block length M for --doppler-every entries (default: 64)",
    )
    shard_parser.add_argument(
        "--work-dir",
        type=Path,
        default=None,
        help="directory for slice payloads and worker outputs (default: a "
        "fresh temporary directory; reuse one to enable --retry-failed)",
    )
    shard_parser.add_argument(
        "--retry-failed",
        action="store_true",
        help="reuse completed slice outputs already in --work-dir and only "
        "re-run slices that failed",
    )
    shard_parser.add_argument(
        "--check",
        action="store_true",
        help="also run the plan solo in-process and verify the merged "
        "result is byte-identical (standing invariant 7)",
    )
    _cache_dir_argument(shard_parser, required=True)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    cache_parser.add_argument(
        "action",
        choices=("stats", "clear"),
        help="stats: print per-tier entry counts and sizes; clear: remove "
        "every persisted entry",
    )
    _cache_dir_argument(cache_parser, required=True)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run reprolint, the project-invariant static analyzer",
        description=(
            "Run the reprolint rules (lock discipline, hot-path allocation, "
            "cache-key purity) over source paths. "
            "Exit codes: 0 clean, 1 findings, 2 analyzer error."
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the report to this file",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )

    return parser


def _run_cache_command(action: str, cache_dir: Path) -> int:
    """Implement ``repro-experiments cache {stats,clear}`` over ``plans/``."""
    from .engine import CompiledPlanCache

    plans = CompiledPlanCache(cache_dir=cache_dir)

    if action == "clear":
        removed = plans.clear_disk()
        print(f"cache cleared: removed {removed} entries under {cache_dir}")
        return 0

    print(f"cache directory: {cache_dir}")
    entries, n_bytes = plans.disk_usage()
    print(f"  compiled plans: {entries} entries, {n_bytes / 1024:.1f} KiB")
    return 0


def _run_shard_command(args) -> int:
    """Implement ``repro-experiments shard`` (see the parser description)."""
    from .experiments.scaling import shard_sweep_plan
    from .shard import run_sharded

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.entries < 1:
        raise SystemExit(f"--entries must be >= 1, got {args.entries}")
    if args.samples < 1:
        raise SystemExit(f"--samples must be >= 1, got {args.samples}")
    if args.retry_failed and args.work_dir is None:
        raise SystemExit("--retry-failed needs --work-dir (the run to resume)")
    if args.doppler_every:
        from .engine import DopplerSpec
        from .exceptions import ReproError

        try:
            DopplerSpec(normalized_doppler=args.fm, n_points=args.points)
        except ReproError as exc:
            raise SystemExit(f"invalid --fm/--points combination: {exc}")
    seed = 20050413 if args.seed is None else args.seed
    plan = shard_sweep_plan(
        args.entries,
        args.branches,
        seed,
        doppler_every=args.doppler_every,
        normalized_doppler=args.fm,
        n_points=args.points,
    )

    def progress(index: int, line: str) -> None:
        print(f"[shard {index}] {line}", flush=True)

    outcome = run_sharded(
        plan,
        args.samples,
        n_shards=args.shards,
        cache_dir=args.cache_dir,
        work_dir=args.work_dir,
        retry_failed=args.retry_failed,
        progress=progress,
    )
    totals = outcome.tier_totals()
    print(
        f"sharded sweep: {len(plan)} entries over {len(outcome.slices)} shards "
        f"in {outcome.wall_seconds:.2f}s (cache_dir={args.cache_dir})"
    )
    print(
        "  compiled plans: "
        f"{totals.get('plan_cache_hits', 0)} whole-plan warm hits, "
        f"{totals.get('plans_disk_misses', 0)} cold compiles"
    )
    if outcome.failed:
        failed = ", ".join(str(index) for index in outcome.failed)
        print(
            f"FAILED slices: {failed} — surviving slices merged; resume with "
            f"--retry-failed --work-dir {outcome.work_dir}"
        )
        return 1
    merged = outcome.merged
    assert merged is not None
    print(f"merged result: {len(merged.blocks)} blocks x {merged.n_samples} samples")
    if args.check:
        from .engine import SimulationEngine

        # A memory-only solo engine: the reference must not touch the
        # shared cache_dir.
        reference = SimulationEngine().run(plan, args.samples)
        identical = len(reference.blocks) == len(merged.blocks) and all(
            ref.samples.tobytes() == got.samples.tobytes()
            for ref, got in zip(reference.blocks, merged.blocks)
        )
        print(f"bit-identical to solo run: {'OK' if identical else 'MISMATCH'}")
        if not identical:
            return 1
    return 0


def _run_ids(requested: List[str]) -> List[str]:
    from .experiments import list_experiments

    if len(requested) == 1 and requested[0] == "all":
        return list_experiments()
    unknown = [name for name in requested if name not in list_experiments()]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; available: {', '.join(list_experiments())}"
        )
    return requested


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.  Returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from .experiments import list_experiments

        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.command == "serve":
        from .api import Simulator
        from .service.http import run_server

        if args.max_queue < 1:
            raise SystemExit(f"--max-queue must be >= 1, got {args.max_queue}")
        if args.dispatch_slots < 1:
            raise SystemExit(
                f"--dispatch-slots must be >= 1, got {args.dispatch_slots}"
            )
        simulator = Simulator(
            cache_dir=args.cache_dir, max_workers=args.dispatch_slots
        )
        print(
            f"serving envelopes on http://{args.host}:{args.port} "
            f"(max_queue={args.max_queue}, dispatch_slots={args.dispatch_slots}) "
            "— Ctrl-C to stop"
        )
        try:
            run_server(
                args.host,
                args.port,
                simulator=simulator,
                max_queue=args.max_queue,
                dispatch_slots=args.dispatch_slots,
            )
        finally:
            simulator.close()
        return 0

    if args.command == "cache":
        return _run_cache_command(args.action, args.cache_dir)

    if args.command == "shard":
        return _run_shard_command(args)

    if args.command == "suite":
        import json

        from .exceptions import ReproError
        # Imported lazily: repro.models.workloads pulls in the engine, which
        # itself imports repro.models.fading — see the package docstrings.
        from .models import workloads

        if args.list_suites:
            for name in workloads.available_suites():
                print(f"{name}: {workloads.NAMED_SUITES[name]['description']}")
            return 0
        if (args.suite is None) == (args.file is None):
            raise SystemExit(
                "pass exactly one of a suite name or --file (or use --list)"
            )
        try:
            workload = (
                workloads.load_workload(args.file)
                if args.file is not None
                else workloads.get_suite(args.suite)
            )
            summary = workloads.run_suite(workload, n_samples=args.samples)
        except ReproError as exc:
            # Malformed workloads exit with the field-naming message, not a
            # traceback — the CLI face of the coercion-error contract.
            raise SystemExit(f"workload error: {exc}")
        print(json.dumps(summary, indent=2))
        return 0

    if args.command == "lint":
        from .analysis import main as lint_main

        lint_argv = list(args.paths)
        if args.format != "text":
            lint_argv += ["--format", args.format]
        if args.output is not None:
            lint_argv += ["--output", str(args.output)]
        if args.rules is not None:
            lint_argv += ["--rules", args.rules]
        if args.list_rules:
            lint_argv.append("--list-rules")
        return lint_main(lint_argv)

    if args.command == "run":
        from .experiments import run_experiment

        exit_code = 0
        for experiment_id in _run_ids(list(args.experiments)):
            kwargs = {} if args.seed is None else {"seed": args.seed}
            result = run_experiment(experiment_id, **kwargs)
            print(result.render(include_series=args.ascii_plots))
            print("=" * 78)
            if not result.passed:
                exit_code = 1
        return exit_code

    if args.command == "batch":
        from .experiments.scaling import run_batch, run_doppler_batch

        try:
            batch_sizes = tuple(
                int(token) for token in str(args.batch_sizes).split(",") if token.strip()
            )
        except ValueError:
            raise SystemExit(
                f"--batch-sizes must be comma-separated integers, got {args.batch_sizes!r}"
            )
        if not batch_sizes or any(size < 1 for size in batch_sizes):
            raise SystemExit("--batch-sizes must contain positive integers")
        if args.branches < 1:
            raise SystemExit(f"--branches must be >= 1, got {args.branches}")
        fading = None
        if args.model is not None:
            fading = {"model": args.model, "shadowing_sigma_db": args.shadow_sigma}
            if args.shape is not None:
                fading["shape"] = args.shape
        elif args.shape is not None or args.shadow_sigma:
            raise SystemExit("--shape and --shadow-sigma require --model")
        if fading is not None:
            from .exceptions import ReproError
            from .models import coerce_fading

            try:
                # Validate up front so a bad spec exits with the
                # field-naming message, not a traceback mid-sweep.
                fading = coerce_fading(fading)
            except ReproError as exc:
                raise SystemExit(f"invalid fading model: {exc}")
        kwargs = {
            "batch_sizes": batch_sizes,
            "n_branches": args.branches,
            "repeats": args.repeats,
        }
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.doppler:
            if fading is not None:
                raise SystemExit(
                    "--model applies to the snapshot sweep only; the Doppler "
                    "sweep's looped baseline has no fading reference"
                )
            if args.samples is not None:
                raise SystemExit(
                    "--samples is not accepted with --doppler: the Doppler sweep's "
                    "record length is the IDFT block length (use --points)"
                )
            from .engine import DopplerSpec
            from .exceptions import ReproError

            try:
                # Full (M, f_m) validation — passband occupancy, band-edge
                # overlap — not just the range checks.
                DopplerSpec(normalized_doppler=args.fm, n_points=args.points)
            except ReproError as exc:
                raise SystemExit(f"invalid --fm/--points combination: {exc}")
            result = run_doppler_batch(
                normalized_doppler=args.fm, n_points=args.points, **kwargs
            )
            print(result.render())
            filters_built = int(result.metrics.get("doppler_filters_built_total", 0))
            entries_served = int(result.metrics.get("doppler_entries_total", 0))
            print(
                f"doppler filters: {filters_built} built for {entries_served} entries "
                f"served (looped path would build {entries_served})"
            )
            return 0 if result.passed else 1
        n_samples = 64 if args.samples is None else args.samples
        if n_samples < 1:
            raise SystemExit(f"--samples must be >= 1, got {n_samples}")
        result = run_batch(n_samples=n_samples, fading=fading, **kwargs)
        print(result.render())
        warm_hits = int(result.metrics.get("warm_cache_hits_total", 0))
        warm_misses = int(result.metrics.get("warm_cache_misses_total", 0))
        cold_misses = int(result.metrics.get("cold_cache_misses_total", 0))
        warm_lookups = warm_hits + warm_misses
        warm_rate = warm_hits / warm_lookups if warm_lookups else 0.0
        print(
            f"decomposition cache: cold compiles paid {cold_misses} decompositions; "
            f"warm compiles served {warm_hits}/{warm_lookups} lookups from cache "
            f"({warm_rate:.1%} warm hit rate)"
        )
        return 0 if result.passed else 1

    if args.command == "export":
        from .experiments import run_experiment

        kwargs = {} if args.seed is None else {"seed": args.seed}
        result = run_experiment(args.experiment, **kwargs)
        output_dir: Path = args.output
        output_dir.mkdir(parents=True, exist_ok=True)
        report_path = output_dir / f"{result.experiment_id}.txt"
        report_path.write_text(result.render(include_series=True), encoding="utf8")
        if result.series:
            csv_path = output_dir / f"{result.experiment_id}.csv"
            csv_path.write_text(result.series_as_csv(), encoding="utf8")
        print(f"wrote {report_path}")
        return 0 if result.passed else 1

    # argparse with required subparsers should prevent reaching this point.
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
