"""The subprocess shard runner: K workers, one shared compiled-plan cache.

:func:`run_sharded` partitions a plan (:func:`~repro.shard.partition_plan`),
writes each slice's wire payload into a *work directory*, and executes the
slices as separate worker processes that all attach the same
``cache_dir`` — the subprocess form of ROADMAP item 2's multi-host story,
where the transport is the filesystem.

Worker start-up: importing numpy and the engine costs a fresh interpreter
far more than a slice's own work, so the runner keeps one warm *launcher*
(``python -m repro.shard.worker --launcher FD``, see
:mod:`repro.shard.worker`) per process and forks each slice's worker from
it.  The launcher is started with exactly the worker environment below and
is keyed on it: a run whose environment differs (another shard count,
other ``extra_env``) starts a new one and retires the old one, which
exits once the workers it forked have exited.  A launcher exits when its
control socket closes, so it never outlives the process that started it,
and one that does not answer by a worker's timeout is killed.  The
saving is per process: the first sharded run in a process (or the first
after the worker environment changes) pays the launcher's start-up
serially, and later runs pay only a fork per slice.  A worker
handle is shaped like :class:`subprocess.Popen` (``stdout``, ``poll``,
``wait``, ``kill``, ``returncode``), and where ``os.fork``,
``socket.send_fds`` or ``AF_UNIX`` ``SOCK_SEQPACKET`` sockets are missing
the runner starts ``python -m repro.shard.worker`` per slice instead,
with the same argv.

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

import atexit
import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import CompileReport, SimulationPlan
from ..engine.result import BatchResult
from ..exceptions import SpecificationError
from ..types import GaussianBlock
from .slicing import PlanSlice, merge_results, partition_plan, slice_to_payload

# ``socket`` and ``concurrent.futures`` (which loads ``logging``) are
# imported where a launcher is used: importing this module, as every
# ``repro.shard`` name does, must not pay for a sharded run.
if TYPE_CHECKING:
    from concurrent.futures import Future

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


#: The worker module the launcher and the per-slice fallback both run.
_WORKER = [sys.executable, "-m", "repro.shard.worker"]

#: Exit status of a worker whose launcher exited before reporting it.
_UNKNOWN_EXIT = 255

#: Room for one launcher message (a pid and an exit code).
_MESSAGE_BYTES = 4096


class _Launcher:
    """The parent's end of one warm launcher process (module docs)."""

    def __init__(self, env: Dict[str, str], key: Tuple[Tuple[str, str], ...]) -> None:
        import socket

        self.key = key
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.process = subprocess.Popen(
                _WORKER + ["--launcher", str(theirs.fileno())],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                env=env,
                pass_fds=(theirs.fileno(),),
            )
        self._sock = ours
        self._lock = threading.Lock()
        # Spawn answers arrive in request order; exits arrive by pid.
        self._forks: Deque[Future] = deque()
        self._exits: Dict[int, Future] = {}
        self.lost = False
        self.killed = False
        threading.Thread(target=self._read, name="shard-launcher", daemon=True).start()

    def _read(self) -> None:
        from concurrent.futures import Future

        while True:
            try:
                data = self._sock.recv(_MESSAGE_BYTES)
            except OSError:
                data = b""
            if not data:
                break
            message = json.loads(data.decode("utf8"))
            with self._lock:
                if "exited" in message:
                    future = self._exits.pop(message["exited"])
                    outcome: Any = message["code"]
                else:
                    future, pid = self._forks.popleft(), message["forked"]
                    outcome = None if pid is None else (
                        pid, self._exits.setdefault(pid, Future())
                    )
            future.set_result(outcome)
        with self._lock:
            self.lost = True
            pending = list(self._forks) + list(self._exits.values())
            self._forks.clear()
            self._exits.clear()
        for future in pending:
            future.set_result(None)
        self._sock.close()
        self.process.wait()

    def send(self, message: Dict[str, Any], fds: Tuple[int, ...] = ()) -> None:
        """Send ``message``; a lost launcher drops it."""
        import socket

        try:
            socket.send_fds(self._sock, [json.dumps(message).encode("utf8")], list(fds))
        except OSError:
            # The reader sees the same EOF and settles every handle.
            pass

    def spawn(self, argv: List[str]) -> "_ForkedWorker":
        from concurrent.futures import Future

        read_fd, write_fd = os.pipe()
        forked: Future = Future()
        try:
            with self._lock:
                if self.lost:
                    forked.set_result(None)
                else:
                    self._forks.append(forked)
            if not forked.done():
                self.send({"op": "spawn", "argv": argv, "cwd": os.getcwd()}, (write_fd,))
        finally:
            os.close(write_fd)
        return _ForkedWorker(self, forked, _WORKER + argv, open(read_fd, errors="replace"))

    def retire(self) -> None:
        """Let the launcher exit once the children it runs have exited."""
        self.send({"op": "retire"})

    def abandon(self) -> None:
        """Kill a launcher that stopped answering; every handle settles."""
        with self._lock:
            self.lost = self.killed = True
        self.process.kill()

    def close(self) -> None:
        import socket

        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class _ForkedWorker:
    """A worker forked by a launcher, shaped like :class:`subprocess.Popen`.

    ``forked`` settles with ``(pid, exited)`` once the launcher has forked
    the child (``None`` if it never did), and ``exited`` with the exit code
    the launcher reports when it reaps the child (``None`` if the launcher
    was lost first, read as exit 255).  ``kill`` goes through the launcher,
    which signals only children it has not reaped.  A launcher that has not
    forked the child when ``kill`` comes has stopped answering: it is
    killed, and every worker it never forked reads as SIGKILLed.
    """

    def __init__(self, launcher: _Launcher, forked: Future, args: List[str], stdout) -> None:
        self.args = args
        self.stdout = stdout
        self.returncode: Optional[int] = None
        self._launcher = launcher
        self._forked = forked
        self._lock = threading.Lock()

    def _settle(self, code: Optional[int]) -> int:
        with self._lock:
            if self.returncode is None:
                self.returncode = _UNKNOWN_EXIT if code is None else int(code)
            return self.returncode

    def _unforked(self) -> Optional[int]:
        return -signal.SIGKILL if self._launcher.killed else None

    def poll(self) -> Optional[int]:
        if self._forked.done():
            forked = self._forked.result()
            if forked is None:
                return self._settle(self._unforked())
            if forked[1].done():
                return self._settle(forked[1].result())
        return None

    def wait(self, timeout: Optional[float] = None) -> int:
        from concurrent.futures import TimeoutError as FutureTimeout

        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            forked = self._forked.result(timeout)
            if forked is None:
                return self._settle(self._unforked())
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            return self._settle(forked[1].result(left))
        except FutureTimeout:
            raise subprocess.TimeoutExpired(self.args, timeout) from None

    def kill(self) -> None:
        with self._lock:
            if self.returncode is not None:
                return
            if not self._forked.done():
                self._launcher.abandon()
                return
        forked = self._forked.result()
        if forked is not None and not forked[1].done():
            self._launcher.send({"op": "kill", "pid": forked[0]})


_LAUNCHER_LOCK = threading.Lock()
_LAUNCHER: Optional[_Launcher] = None


def _fork_worker(env: Dict[str, str], argv: List[str]) -> _ForkedWorker:
    """Fork a worker from this process's launcher for ``env``.

    A launcher for another environment is retired and replaced.  The spawn
    request goes out under the same lock, so it always reaches the
    launcher before a concurrent run can retire it.
    """
    global _LAUNCHER
    key = tuple(sorted(env.items()))
    with _LAUNCHER_LOCK:
        launcher = _LAUNCHER
        if launcher is None or launcher.key != key or launcher.lost:
            retired, _LAUNCHER = launcher, _Launcher(env, key)
            if retired is not None:
                retired.retire()
            launcher = _LAUNCHER
        return launcher.spawn(argv)


def _close_launcher() -> None:
    """At exit: stop the launcher now rather than when the socket drops."""
    global _LAUNCHER
    with _LAUNCHER_LOCK:
        launcher, _LAUNCHER = _LAUNCHER, None
    if launcher is not None:
        launcher.close()


def _forget_launcher() -> None:
    """In a forked copy of this process: drop the parent's launcher."""
    global _LAUNCHER, _LAUNCHER_LOCK
    _LAUNCHER_LOCK = threading.Lock()
    with _LAUNCHER_LOCK:
        inherited, _LAUNCHER = _LAUNCHER, None
    if inherited is not None:
        # Closes this copy's descriptor only; the parent keeps its launcher.
        inherited._sock.close()


def _can_fork() -> bool:
    return hasattr(os, "fork") and _can_pass_fds()


@functools.lru_cache(maxsize=None)
def _can_pass_fds() -> bool:
    """Whether ``socket.send_fds`` and ``AF_UNIX`` ``SOCK_SEQPACKET`` pairs
    work (not on every Unix)."""
    import socket

    if not hasattr(socket, "send_fds"):
        return False
    try:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    except (AttributeError, OSError):
        return False
    ours.close()
    theirs.close()
    return True


atexit.register(_close_launcher)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_launcher)


def _spawn(
    slice_path: Path,
    out_prefix: Path,
    *,
    cache_dir: Optional[Union[str, Path]],
    backend: Optional[str],
    env: Dict[str, str],
) -> Union[subprocess.Popen, _ForkedWorker]:
    argv = [str(slice_path), "--out", str(out_prefix)]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if backend is not None:
        argv += ["--backend", str(backend)]
    if _can_fork():
        return _fork_worker(env, argv)
    return subprocess.Popen(
        _WORKER + argv,
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
