"""The shard worker: one :class:`PlanSlice`, one engine run.

The worker CLI is ``python -m repro.shard.worker <slice.json> --out PREFIX
[--cache-dir DIR]``.  The runner normally runs it in a
warm worker process forked from a *launcher* (see below), which serves
one slice after another, rather than in a fresh interpreter; the files,
exit code and output are the same.  The worker
decodes its slice payload, builds a private
:class:`~repro.engine.SimulationEngine` whose compiled-plan cache attaches
to the caller-supplied shared ``cache_dir``, compiles the sub-plan,
executes, and publishes two files:

* ``PREFIX.bin`` — every block's samples as raw little-endian
  ``complex128`` bytes, the blocks back to back in plan order, with no
  header;
* ``PREFIX.json`` — slice addressing, labels, the SHA-256 of the exact
  slice-payload bytes it read (``slice_sha256``), the
  :class:`CompileReport`, the compiled-plan cache counters the runner
  aggregates into its warm-hit report, and the layout of ``PREFIX.bin``:
  ``layout`` lists each block's ``shape`` and its ``variances`` (JSON
  floats, which round-trip doubles exactly), and ``crc32`` is the
  :func:`zlib.crc32` of the whole ``.bin``.

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
analogue of the ``FlakyEigh``/``FlakyStore`` fail-at-exactly-N harness
in ``tests/conftest.py``): the slice's compiled plan is already in the
shared cache, its output is not, so a ``--retry-failed`` rerun must
recover bit-identically from the warm cache.

Launcher
--------
``python -m repro.shard.worker --launcher FD`` is the runner's warm
process: it has imported this module (numpy and the engine, nothing else)
and serves requests on the control socket ``FD`` (an ``AF_UNIX``
``SOCK_SEQPACKET`` end, one JSON message per packet).  It keeps every
worker it forks:

* ``spawn`` (with the pipe for the slice's stdout and stderr attached,
  and a ``slice`` number the runner chose) hands the slice to an idle
  worker, forking a new one only when none is idle, and answers
  ``{"started": slice, "pid": pid}`` (``pid`` is ``null`` if the fork
  failed).  Requests are served in order;
* ``kill`` names a slice and SIGKILLs the worker serving it, if one still
  does, so it never reaches a worker that has moved on to another slice;
* ``retire`` makes the launcher end its workers and exit once no slice
  is running.

A worker serves one slice at a time: it changes to the request's
directory, puts the slice's pipe on fd 1 and 2, runs :func:`main` (whose
:func:`run_slice` builds a fresh engine for every slice), flushes, and
puts the descriptors it started with back, so the runner reads EOF on
the pipe.
It then answers with the slice's exit code, and the launcher sends
``{"exited": slice, "code": code}`` unasked.  After a non-zero code the
worker exits and is never handed another slice; a worker killed by a
signal is reaped on ``SIGCHLD`` and its slice reported with the code
``subprocess`` would give (negative for a signal).  Reaping and killing
happen in the launcher's one thread, so no signal reaches a reaped pid.

Lifetime: the launcher ends its workers when it is retired or when its
control socket reaches EOF (the runner exited).  Idle workers leave when
their channel to the launcher closes; a worker still running a slice for
a runner that is gone is killed.  The launcher waits for every worker
before it exits, so no process outlives the runner.  A worker whose
launcher is killed leaves once its slice is done.

Fork safety: the launcher does no numerical work, draws no random numbers
and starts no thread, and workers never fork, so a worker starts from the
state a fresh worker process would have after its imports.  A worker
flushes its streams, runs the registered :mod:`atexit` callbacks and
leaves with :func:`os._exit`, skipping the interpreter teardown; the
launcher leaves the same way, skipping the callbacks.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import signal
import socket
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, NoReturn, Optional, Tuple

from ..engine import SimulationEngine
from ..engine.result import BatchResult
from .slicing import PlanSlice, _sample_record, slice_from_payload

__all__ = ["KILL_SLICE_ENV", "run_slice", "main"]

#: Fault-injection hook: the worker whose slice index matches SIGKILLs
#: itself between executing and publishing (see the module docs).
KILL_SLICE_ENV = "REPRO_SHARD_KILL_SLICE"

#: Largest control request the launcher reads (a spawn's argv and cwd).
_MAX_REQUEST = 1 << 16

#: How long an ending launcher waits for its workers before killing them.
_END_SECONDS = 5.0

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
) -> Tuple[BatchResult, Dict[str, Any]]:
    """Execute one slice and return ``(result, meta)``.

    ``meta`` carries everything the runner needs without unpickling engine
    internals: slice addressing, labels, the compile report, and the
    compiled-plan cache counters.
    """
    engine = SimulationEngine(cache_dir=cache_dir)
    result = engine.run(plan_slice.plan, n_samples)
    plans = engine.plan_cache.stats
    meta: Dict[str, Any] = {
        "index": plan_slice.index,
        "n_shards": plan_slice.n_shards,
        "start": plan_slice.start,
        "n_entries": plan_slice.n_entries,
        "n_samples": int(n_samples),
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
    samples, record = _sample_record(result.blocks)
    meta.update(record)

    def write_samples(handle) -> None:
        for block_samples in samples:
            handle.write(block_samples)

    bin_path = out_prefix.with_name(out_prefix.name + ".bin")
    json_path = out_prefix.with_name(out_prefix.name + ".json")
    _publish(bin_path, write_samples)
    # The .json is the commit marker: it describes the already-published
    # .bin, so the runner accepts the slice only once both are durable.
    _publish(
        json_path,
        lambda handle: handle.write(json.dumps(meta, sort_keys=True).encode("utf8")),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Worker entry point: decode, run, publish.  Returns an exit code."""
    parser = argparse.ArgumentParser(prog="repro-shard-worker")
    parser.add_argument("slice_path", type=Path, help="slice payload JSON file")
    parser.add_argument(
        "--out", type=Path, required=True, help="output path prefix (.bin/.json)"
    )
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args(argv)

    raw = args.slice_path.read_bytes()
    plan_slice, n_samples = slice_from_payload(raw)
    print(
        f"shard {plan_slice.index}/{plan_slice.n_shards}: start "
        f"entries={plan_slice.n_entries} n_samples={n_samples}",
        flush=True,
    )
    result, meta = run_slice(plan_slice, n_samples, cache_dir=args.cache_dir)
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


def _exit_code(exc: SystemExit) -> int:
    """The status the interpreter would exit with for ``exc``."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def _flush_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass


def _run_request(request: Dict[str, Any], out_fd: int, idle: Tuple[int, int]) -> int:
    """Run :func:`main` for one slice with fd 1 and 2 on ``out_fd``.

    Afterwards fd 1 and 2 go back to ``idle``, so no descriptor of the
    slice's pipe is left open and the runner reads its EOF.
    """
    os.dup2(out_fd, 1)
    os.dup2(out_fd, 2)
    os.close(out_fd)
    try:
        os.chdir(request["cwd"])
        return main(list(request["argv"]))
    except SystemExit as exc:
        return _exit_code(exc)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _flush_streams()
        os.dup2(idle[0], 1)
        os.dup2(idle[1], 2)


def _serve(channel: socket.socket) -> NoReturn:
    """A forked worker: serve slices sent on ``channel`` until it closes.

    Each request is answered with ``{"code": code}``; after a non-zero
    code the worker exits with that code instead of waiting for the next.
    """
    code = 1
    try:
        # A fresh interpreter seeds numpy's legacy global generator from OS
        # entropy; without this every worker would share the launcher's.
        # (The engine draws only from per-entry seeds.)
        legacy = sys.modules.get("numpy.random")
        if legacy is not None:
            legacy.seed()
        idle = (os.dup(1), os.dup(2))
        code = 0
        while code == 0:
            try:
                data, fds, _flags, _address = socket.recv_fds(channel, _MAX_REQUEST, 1)
            except OSError:
                data = b""
            if not data:
                break  # the launcher ended this worker
            code = 1  # what a slice interrupted by a signal exits with
            code = _run_request(json.loads(data.decode("utf8")), fds[0], idle)
            try:
                channel.send(json.dumps({"code": code}).encode("utf8"))
            except OSError:
                break
    finally:
        # What a normal exit would do, minus the interpreter teardown:
        # atexit callbacks (site hooks dump their records there), then
        # the buffered streams.
        atexit._run_exitfuncs()
        _flush_streams()
        os._exit(code)


class _Worker:
    """The launcher's end of one forked worker."""

    def __init__(self, pid: int, channel: socket.socket) -> None:
        self.pid = pid
        self.channel: Optional[socket.socket] = channel
        #: The slice it serves; ``None`` while idle.
        self.slice: Optional[int] = None
        self.killed = False

    def fileno(self) -> int:
        assert self.channel is not None
        return self.channel.fileno()

    def hang_up(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None


def _launch(control_fd: int) -> NoReturn:
    """Serve slice requests on ``control_fd`` with warm workers (module docs)."""
    import select
    import time

    control = socket.socket(fileno=control_fd)
    wake_read, wake_write = socket.socketpair()
    wake_read.setblocking(False)
    wake_write.setblocking(False)
    # SIGCHLD writes to the wake-up socket, so a worker's exit interrupts
    # the select below and is reported at once.
    signal.set_wakeup_fd(wake_write.fileno())
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    # Ctrl-C reaches the whole process group; the runner decides what stops.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    workers: Dict[int, _Worker] = {}
    idle: List[_Worker] = []
    retiring = False

    def end() -> NoReturn:
        """End every worker, wait for them, and exit.

        Idle workers leave on their own once their channel closes; a worker
        still serving a slice is only left when the runner is gone, and
        nobody would read its output.
        """
        for worker in workers.values():
            if worker.slice is not None:
                os.kill(worker.pid, signal.SIGKILL)
            worker.hang_up()
        deadline = time.monotonic() + _END_SECONDS
        while workers and time.monotonic() < deadline:
            pid, _status = os.waitpid(-1, os.WNOHANG)
            if pid:
                workers.pop(pid, None)
            else:
                time.sleep(0.01)
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        # The runner's atexit callbacks belong to a process that did no
        # work: skip them.
        os._exit(0)

    def send(message: Dict[str, Any]) -> None:
        try:
            control.send(json.dumps(message).encode("utf8"))
        except OSError:
            end()

    def report(worker: _Worker, code: int) -> None:
        served, worker.slice = worker.slice, None
        if served is not None:
            send({"exited": served, "code": code})

    def fork_worker(out_fd: int) -> _Worker:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            theirs.close()
            raise
        if pid == 0:
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
            for sock in [control, wake_read, wake_write, ours] + [
                worker.channel for worker in workers.values() if worker.channel
            ]:
                sock.close()
            os.close(out_fd)  # the request hands the worker its own copy
            _serve(theirs)
        theirs.close()
        workers[pid] = _Worker(pid, ours)
        return workers[pid]

    def start(request: Dict[str, Any], out_fd: int) -> Optional[int]:
        """Hand the slice to an idle worker, forking one if none is idle."""
        message = json.dumps({"argv": request["argv"], "cwd": request["cwd"]})
        try:
            while True:
                try:
                    worker = idle.pop() if idle else fork_worker(out_fd)
                except OSError as exc:
                    os.write(out_fd, f"shard worker launcher: fork failed: {exc}\n".encode())
                    return None
                try:
                    socket.send_fds(worker.channel, [message.encode("utf8")], [out_fd])
                except OSError:
                    worker.hang_up()  # it died while idle; the reap collects it
                    continue
                worker.slice = request["slice"]
                return worker.pid
        finally:
            os.close(out_fd)

    def retire(worker: _Worker) -> None:
        """Close the worker's channel and never hand it another slice."""
        worker.hang_up()
        if worker in idle:
            idle.remove(worker)

    def receive(worker: _Worker) -> None:
        """Read a worker's answer: the exit code of the slice it served."""
        try:
            data = worker.channel.recv(_MAX_REQUEST)
        except OSError:
            data = b""
        if not data:
            retire(worker)  # it exited; the reap reports its slice
            return
        code = json.loads(data.decode("utf8"))["code"]
        report(worker, code)
        if code == 0 and not worker.killed:
            idle.append(worker)

    def serve_control() -> None:
        nonlocal retiring
        try:
            data, fds, _flags, _address = socket.recv_fds(control, _MAX_REQUEST, 1)
        except OSError:
            data, fds = b"", []
        if not data:
            end()  # the runner exited
        request = json.loads(data.decode("utf8"))
        if request["op"] == "spawn":
            send({"started": request["slice"], "pid": start(request, fds[0])})
        elif request["op"] == "kill":
            # Only the worker serving that slice now: never one that has
            # moved on to another slice.
            for worker in workers.values():
                if worker.slice == request["slice"] and not worker.killed:
                    os.kill(worker.pid, signal.SIGKILL)
                    worker.killed = True
        elif request["op"] == "retire":
            retiring = True

    def reap() -> None:
        while workers:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                return
            worker = workers.pop(pid)
            if worker.channel is not None:
                receive(worker)  # an answer it sent before it exited comes first
            retire(worker)
            report(worker, os.waitstatus_to_exitcode(status))

    while not retiring or any(worker.slice is not None for worker in workers.values()):
        channels = [worker for worker in workers.values() if worker.channel is not None]
        for ready in select.select([control, wake_read, *channels], [], [])[0]:
            if ready is control:
                serve_control()
            elif ready is wake_read:
                try:
                    while wake_read.recv(4096):
                        pass
                except BlockingIOError:
                    pass
            elif ready.channel is not None:
                receive(ready)
        reap()
    end()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if sys.argv[1:2] == ["--launcher"]:
        _launch(int(sys.argv[2]))
    sys.exit(main())
