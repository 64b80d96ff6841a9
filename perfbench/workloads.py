"""The benchmark's four workloads over the ``repro`` stack.

Every workload repeats one operation — build a plan and get its samples
back — until the measuring window closes.  Before that it sets up several
times, timing each set-up; after it, it recomputes a sample of the
operations on a fresh engine with every cache detached and checks that the
bytes match.

Sizes and mixes come from the repository's own callers:

===========  ===============================================================
workload     shape, and where it comes from
===========  ===============================================================
sweep-warm   ``Simulator(cache_dir=...)`` sweeps at ``repro batch``'s
             defaults: 16 entries (the middle ``--batch-sizes`` value), 4
             branches (``--branches``), 128 samples (``--points``, the
             Doppler block length), over one fixed scenario set, so every
             compile is a compiled-plan memory-tier hit.
sweep-cold   The same sweep with fresh covariances in every run, in a
             memory-only session, so every decomposition and plan lookup
             misses and compile sets the time.
serve        ``python -m repro serve`` with its defaults (queue 64, 4
             dispatch slots, no cache directory) under
             ``bench_service_concurrency``'s request shape: 8 distinct plans
             of 3 branches and 256 samples.  Each request carries 2
             entries, the entry count of the multi-entry ``repro suite``
             named suites, so under serve's default ``--max-workers`` it
             runs through a process pool.  4 clients keep one request each
             in flight, one per dispatch slot, so requests do not queue.
shard        ``bench_shard_scaling``'s warm sweep (``batch_sweep_specs``:
             8 entries x 32 branches, 2048 samples) over 2 worker
             subprocesses, the ``repro shard --shards`` default.
===========  ===============================================================

Sweep entries cycle the fading models of the five ``repro suite`` named
suites, and every third one is a Doppler entry (the CI shard smoke test's
``--doppler-every 3``) at the paper's f_m = 0.05.  Covariances follow the
suite schema's exponential profile ``K[i, j] = rho^|i-j| sqrt(W_i W_j)``,
drawn from the seed within the ranges the named suites use.  Unlike
``bench_service_concurrency``, serve keeps only as many requests in flight
as the server has dispatch slots: its 64 in flight (16 clients x 4) on a
host with a few cores time the scheduler more than the server.  Serve
requests never repeat a seed, so no two of them coalesce.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import probes
from repro.api import Simulator
from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    DopplerSpec,
    SimulationEngine,
    SimulationPlan,
)
from repro.experiments.paper_values import NORMALIZED_DOPPLER
from repro.experiments.scaling import (
    batch_sweep_specs,
    exponential_correlation_covariance,
)
from repro.models.workloads import NAMED_SUITES
from repro.service.protocol import plan_to_payload, result_from_lines
from repro.shard import run_sharded

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HOOK = HERE / "hook"

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 5

#: The named suites' fading specs (``None`` is plain Rayleigh), cycled over
#: a sweep's entries.
FADINGS = tuple(suite.get("fading") for suite in NAMED_SUITES.values())
DOPPLER_EVERY = 3
DOPPLER_POINTS = 128

SWEEP_ENTRIES = 16
SWEEP_BRANCHES = 4
SWEEP_SAMPLES = DOPPLER_POINTS

#: One client per dispatch slot of ``repro serve``'s default.
SERVE_CLIENTS = 4
SERVE_POOL = 8
SERVE_BRANCHES = 3
SERVE_SAMPLES = 256
SERVE_ENTRIES = 2
HOST = "127.0.0.1"

SHARD_ENTRIES = 8
SHARD_BRANCHES = 32
SHARD_SAMPLES = 2048
SHARD_COUNT = 2

#: Operations whose bytes are checked against a fresh engine, per run.
CHECKED_OPS = 8


@dataclass(frozen=True)
class Scenario:
    """One plan entry's inputs (the seed is chosen per operation)."""

    #: A covariance matrix or a ``CovarianceSpec``.
    covariance: Any
    doppler: bool = False
    fading: Optional[Dict[str, Any]] = None


@dataclass
class Context:
    """What one benchmark run knows: its seed, window, directory, tracer."""

    seed: int
    seconds: float
    work: Path
    recorder: Optional[probes.Recorder] = None

    @property
    def spans_dir(self) -> Path:
        return self.work / "spans"

    def scope(self, op: int):
        """Charge the block's calls to ``op`` when tracing."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return probes.op_scope(op)

    def record_op(self, op: int, start: float, end: float) -> None:
        if self.recorder is not None:
            self.recorder.record("op", op, start, end)

    def stop_tracing(self) -> None:
        """Record nothing more: what follows is the benchmark's own check."""
        if self.recorder is not None:
            self.recorder.paused = True

    def child_env(self) -> Dict[str, str]:
        """Variables that make a child process record spans when tracing."""
        if self.recorder is None:
            return {}
        return {"PYTHONPATH": str(HOOK), "PERFBENCH_SPANS": str(self.spans_dir)}


@dataclass
class Outcome:
    """Everything a workload measured."""

    setup_seconds: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: One compile report (as a dict) per compile pass the operations ran.
    reports: List[Dict[str, Any]] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def draw_covariance(rng: np.random.Generator, branches: int) -> np.ndarray:
    """An exponential-profile covariance within the named suites' ranges."""
    rho = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    powers = rng.uniform(0.5, 2.0, branches)
    return exponential_correlation_covariance(branches, rho) * np.sqrt(
        np.outer(powers, powers)
    )


def draw_scenarios(
    seed: int, tag: int, count: int, branches: int, *, mixed: bool
) -> List[Scenario]:
    """``count`` scenarios; ``mixed`` cycles the suites' fadings and Doppler."""
    rng = np.random.default_rng([seed, tag])
    return [
        Scenario(
            covariance=draw_covariance(rng, branches),
            doppler=mixed and index % DOPPLER_EVERY == DOPPLER_EVERY - 1,
            fading=FADINGS[index % len(FADINGS)] if mixed else None,
        )
        for index in range(count)
    ]


def entry_seeds(seed: int, op: int, count: int) -> List[int]:
    """Distinct per-entry seeds; set-up operations are negative."""
    return [(seed * 1_000_003 + (op + 1000) * 1000 + index) for index in range(count)]


def label(op: int, index: int) -> str:
    # probes.op_of_label reads the operation back from "op<k>.<i>"; set-up
    # labels deliberately do not match, so set-up is never charged.
    return f"op{op}.{index}" if op >= 0 else f"setup{-op}.{index}"


def build_plan(
    scenarios: Sequence[Scenario], seeds: Sequence[int], op: int
) -> SimulationPlan:
    plan = SimulationPlan()
    for index, (scenario, seed) in enumerate(zip(scenarios, seeds)):
        plan.add(
            scenario.covariance,
            seed=seed,
            doppler=(
                DopplerSpec(
                    normalized_doppler=NORMALIZED_DOPPLER, n_points=DOPPLER_POINTS
                )
                if scenario.doppler
                else None
            ),
            fading=scenario.fading,
            label=label(op, index),
        )
    return plan


def fresh_samples(plan: SimulationPlan, n_samples: int) -> List[np.ndarray]:
    """The reference: the plan run with every cache detached."""
    engine = SimulationEngine(
        cache=DecompositionCache(maxsize=0),
        filter_cache=DopplerFilterCache(),
        plan_cache=CompiledPlanCache(),
    )
    return [block.samples for block in engine.run(plan, n_samples).blocks]


def same_bytes(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want)
    )


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _verify(
    ctx: Context,
    outcome: Outcome,
    kept: List[Tuple[SimulationPlan, List[np.ndarray]]],
    n: int,
) -> None:
    ctx.stop_tracing()
    for plan, samples in kept:
        if not same_bytes(samples, fresh_samples(plan, n)):
            print("perfbench: output differs from the fresh engine", file=sys.stderr)
            outcome.correct = False
    if not kept:
        outcome.correct = False


#: ``operation(op, inputs)`` returns the plan it ran, the samples it got
#: back, and the compile reports of the passes that served it.
Operation = Callable[
    [int, Any], Tuple[SimulationPlan, List[np.ndarray], List[Dict[str, Any]]]
]


def _sequential(
    ctx: Context,
    outcome: Outcome,
    prepare: Callable[[int], Any],
    operation: Operation,
    *,
    check_every: int,
    n_samples: int,
    cleanup: Optional[Callable[[int], None]] = None,
) -> None:
    """Run operations back to back for the window, then verify a sample.

    ``prepare(op)`` draws an operation's inputs and ``cleanup(op)`` removes
    what it left behind; neither is on the operation's clock.
    """
    kept: List[Tuple[SimulationPlan, List[np.ndarray]]] = []
    deadline = time.perf_counter() + ctx.seconds
    for op in itertools.count():
        if time.perf_counter() >= deadline:
            break
        inputs = prepare(op)
        outcome.attempted += 1
        begin = time.perf_counter()
        try:
            with ctx.scope(op):
                plan, samples, reports = operation(op, inputs)
        except Exception:
            outcome.failed += 1
            _report_failure(f"operation {op}")
            continue
        finally:
            end = time.perf_counter()
            ctx.record_op(op, begin, end)
            if cleanup is not None:
                cleanup(op)
        outcome.latencies.append(end - begin)
        outcome.reports.extend(reports)
        if op % check_every == 0 and len(kept) < CHECKED_OPS:
            kept.append((plan, samples))
    _verify(ctx, outcome, kept, n_samples)


# ---------------------------------------------------------------------- #
# Set-up: a fresh process, from start to its first result
# ---------------------------------------------------------------------- #
def _sweep_session(fresh: bool, cache_dir: Path) -> Simulator:
    # The warm sweep attaches every cache tier to a directory.  The cold
    # one stays in memory: on a virtual disk each file a spill creates
    # costs 0.1-1 ms, varying run to run, which would swamp the compile
    # path this workload is here to measure.
    if fresh:
        return Simulator(cache=DecompositionCache())
    return Simulator(cache_dir=cache_dir)


def _sweep_scenarios(seed: int, fresh: bool, op: int) -> List[Scenario]:
    return draw_scenarios(
        seed, op + 1000 if fresh else 0, SWEEP_ENTRIES, SWEEP_BRANCHES, mixed=True
    )


def _shard_scenarios() -> List[Scenario]:
    return [Scenario(spec) for spec in batch_sweep_specs(SHARD_ENTRIES, SHARD_BRANCHES)]


def first_result(workload: str, seed: int, cache_dir: Path) -> None:
    """One set-up: a fresh session's first result (run by ``first.py``).

    For the shard workload this publishes the shared cache the workers
    read; for the warm sweep, the directory the measured session attaches.
    """
    op = -1
    if workload == "shard":
        plan = build_plan(_shard_scenarios(), entry_seeds(seed, op, SHARD_ENTRIES), op)
        SimulationEngine(cache_dir=cache_dir).run(plan, SHARD_SAMPLES)
        return
    fresh = workload == "sweep-cold"
    plan = build_plan(
        _sweep_scenarios(seed, fresh, op), entry_seeds(seed, op, SWEEP_ENTRIES), op
    )
    with _sweep_session(fresh, cache_dir) as session:
        session.run(plan, SWEEP_SAMPLES)


def _time_setups(ctx: Context, workload: str) -> Tuple[List[float], Path]:
    """Time ``SETUPS`` fresh processes; return the times and the last cache.

    A set-up is measured in its own process because it is mostly import
    and first-call cost, which an in-process repeat would not pay again.
    """
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    times = []
    for rep in range(SETUPS):
        cache_dir = ctx.work / f"{workload}-cache-{rep}"
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "first.py"), workload, str(ctx.seed), str(cache_dir)],
            env=env,
            stdin=subprocess.DEVNULL,
            check=True,
        )
        times.append(time.perf_counter() - begin)
    return times, cache_dir


# ---------------------------------------------------------------------- #
# sweep-warm / sweep-cold
# ---------------------------------------------------------------------- #
def _sweep(ctx: Context, fresh: bool) -> Outcome:
    outcome = Outcome()
    outcome.setup_seconds, cache_dir = _time_setups(
        ctx, "sweep-cold" if fresh else "sweep-warm"
    )

    def prepare(op: int):
        return _sweep_scenarios(ctx.seed, fresh, op), entry_seeds(
            ctx.seed, op, SWEEP_ENTRIES
        )

    def operation(op: int, inputs):
        plan = build_plan(*inputs, op)
        result = simulator.run(plan, SWEEP_SAMPLES)
        return plan, [b.samples for b in result.blocks], [asdict(result.compile_report)]

    with _sweep_session(fresh, cache_dir) as simulator:
        # Untimed: bring this process to where the set-up child ended.
        simulator.run(build_plan(*prepare(-1), -1), SWEEP_SAMPLES)
        _sequential(
            ctx,
            outcome,
            prepare,
            operation,
            check_every=50,
            n_samples=SWEEP_SAMPLES,
        )
    return outcome


def sweep_warm(ctx: Context) -> Outcome:
    return _sweep(ctx, fresh=False)


def sweep_cold(ctx: Context) -> Outcome:
    return _sweep(ctx, fresh=True)


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return int(probe.getsockname()[1])


def _http(
    port: int, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    """One request on its own connection (the server closes every one)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=120)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _start_server(ctx: Context, rep: int) -> Tuple[subprocess.Popen, int]:
    """``python -m repro serve`` on a free port; returns once it answers."""
    port = _free_port()
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    extra = ctx.child_env()
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), extra.get("PYTHONPATH"), os.environ.get("PYTHONPATH")])
    )
    log = open(ctx.work / f"server-{rep}.log", "wb")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", HOST, "--port", str(port),
        ],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    log.close()
    deadline = time.monotonic() + 120.0
    while True:
        if process.poll() is not None:
            raise RuntimeError(
                "server exited during start-up:\n"
                + (ctx.work / f"server-{rep}.log").read_text(errors="replace")
            )
        try:
            if _http(port, "GET", "/healthz")[0] == 200:
                return process, port
        except (OSError, http.client.HTTPException):
            pass
        if time.monotonic() > deadline:
            _stop_server(process)
            raise RuntimeError("server did not answer within 120 s")
        time.sleep(0.02)


def _stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _submit(port: int, plan: SimulationPlan, client: str) -> str:
    body = json.dumps(plan_to_payload(plan, SERVE_SAMPLES, client_id=client)).encode()
    status, payload = _http(port, "POST", "/v1/plans", body)
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {payload[:200]!r}")
    return json.loads(payload)["request_id"]


def _result(port: int, request_id: str) -> List[str]:
    """A finished request's NDJSON lines, checked for the closing record."""
    status, payload = _http(port, "GET", f"/v1/plans/{request_id}/result")
    lines = payload.decode("utf8").splitlines()
    if status != 200 or not lines or json.loads(lines[-1]).get("type") != "end":
        raise RuntimeError(f"result answered {status}: {payload[:200]!r}")
    return lines


def serve(ctx: Context) -> Outcome:
    pool = [
        draw_scenarios(ctx.seed, index, SERVE_ENTRIES, SERVE_BRANCHES, mixed=False)
        for index in range(SERVE_POOL)
    ]
    outcome = Outcome()
    kept: List[Tuple[SimulationPlan, List[str]]] = []
    lock = threading.Lock()
    counter = itertools.count()

    def plan_for(op: int, combo: int) -> SimulationPlan:
        return build_plan(pool[combo], entry_seeds(ctx.seed, op, SERVE_ENTRIES), op)

    def tally(op: int, begin: float, done: Optional[Tuple[SimulationPlan, List[str]]]):
        """Count one request; ``done`` is ``(plan, lines)``, or None if it failed."""
        end = time.perf_counter()
        with lock:
            outcome.attempted += 1
            ctx.record_op(op, begin, end)
            if done is None:
                outcome.failed += 1
                return
            outcome.latencies.append(end - begin)
            outcome.reports.append(json.loads(done[1][0])["compile_report"])
            if op % 40 == 0 and len(kept) < CHECKED_OPS:
                kept.append(done)

    def client(index: int, port: int, deadline: float) -> None:
        name = f"client-{index:02d}"
        for turn in itertools.count():
            if time.perf_counter() >= deadline:
                break
            op = next(counter)
            begin = time.perf_counter()
            try:
                with ctx.scope(op):
                    plan = plan_for(op, (index + turn * SERVE_CLIENTS) % SERVE_POOL)
                done = (plan, _result(port, _submit(port, plan, name)))
            except Exception:
                _report_failure(f"request {op}")
                done = None
            tally(op, begin, done)

    server: Optional[Tuple[subprocess.Popen, int]] = None
    try:
        for rep in range(SETUPS):
            if server is not None:
                _stop_server(server[0])
            begin = time.perf_counter()
            server = _start_server(ctx, rep)
            # Set-up ends with every pool plan served once.
            for combo in range(SERVE_POOL):
                _result(server[1], _submit(server[1], plan_for(-1 - rep, combo), "warm-up"))
            outcome.setup_seconds.append(time.perf_counter() - begin)
        deadline = time.perf_counter() + ctx.seconds
        clients = [
            threading.Thread(target=client, args=(index, server[1], deadline))
            for index in range(SERVE_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
    finally:
        if server is not None:
            _stop_server(server[0])

    decoded = [(plan, result_from_lines(lines)["blocks"]) for plan, lines in kept]
    _verify(ctx, outcome, decoded, SERVE_SAMPLES)
    return outcome


# ---------------------------------------------------------------------- #
# shard
# ---------------------------------------------------------------------- #
def shard(ctx: Context) -> Outcome:
    scenarios = _shard_scenarios()
    outcome = Outcome()
    outcome.setup_seconds, cache_dir = _time_setups(ctx, "shard")

    def work_dir(op: int) -> Path:
        return ctx.work / f"shard-op{op}"

    def operation(op: int, seeds: List[int]):
        plan = build_plan(scenarios, seeds, op)
        result = run_sharded(
            plan,
            SHARD_SAMPLES,
            n_shards=SHARD_COUNT,
            cache_dir=cache_dir,
            work_dir=work_dir(op),
            extra_env=ctx.child_env() or None,
        )
        if not result.ok:
            raise RuntimeError(f"shards {result.failed} failed")
        reports = [meta["compile_report"] for meta in result.metas]
        return plan, [b.samples for b in result.merged.blocks], reports

    _sequential(
        ctx,
        outcome,
        lambda op: entry_seeds(ctx.seed, op, SHARD_ENTRIES),
        operation,
        check_every=3,
        n_samples=SHARD_SAMPLES,
        cleanup=lambda op: shutil.rmtree(work_dir(op), ignore_errors=True),
    )
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "sweep-warm": sweep_warm,
    "sweep-cold": sweep_cold,
    "serve": serve,
    "shard": shard,
}
