"""The shard worker: one process, one :class:`PlanSlice`, one engine run.

The worker CLI is ``python -m repro.shard.worker <slice.json> --out PREFIX
[--cache-dir DIR] [--backend NAME]``.  The runner normally runs it in a
child forked from a warm *launcher* (see below) rather than in a fresh
interpreter; the files, exit code and output are the same.  The worker
decodes its slice payload, builds a private
:class:`~repro.engine.SimulationEngine` whose compiled-plan cache attaches
to the caller-supplied shared ``cache_dir``, compiles the sub-plan,
executes, and publishes two files:

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

Launcher
--------
``python -m repro.shard.worker --launcher FD`` is the runner's warm worker
process: it has imported this module (numpy and the engine, nothing else)
and serves requests on the control socket ``FD`` (an ``AF_UNIX``
``SOCK_SEQPACKET`` end, one JSON message per packet):

* ``spawn`` (with the pipe for the child's stdout and stderr attached)
  forks a child that runs :func:`main` on the given argv in the given
  directory, and answers ``{"forked": pid}`` (``null`` if the fork
  failed).  Requests are served in order, so the answers come in the
  order of the requests;
* ``kill`` SIGKILLs a child that has not been reaped;
* ``retire`` makes the launcher exit once its running children have
  exited.

The launcher reaps each child as soon as it exits (on ``SIGCHLD``) and
sends ``{"exited": pid, "code": code}`` unasked, with the exit code
``subprocess`` would report (negative for a signal).  Reaping and killing
happen in the launcher's one thread, and a kill reaches only a child it
has not reaped yet, so no signal reaches a reaped (and reusable) pid.

Fork safety: the launcher does no numerical work, draws no random numbers
and starts no thread, so a child starts from the state a fresh worker
would have after its imports.  A child flushes its streams, runs the
registered :mod:`atexit` callbacks and leaves with :func:`os._exit`,
skipping the interpreter teardown.  The launcher leaves the same way when
its control socket reaches EOF, which happens when the runner exits.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import signal
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, NoReturn, Optional, Set, Tuple

import numpy as np

from ..engine import SimulationEngine
from ..engine.result import BatchResult
from .slicing import PlanSlice, slice_from_payload

__all__ = ["KILL_SLICE_ENV", "run_slice", "main"]

#: Fault-injection hook: the worker whose slice index matches SIGKILLs
#: itself between executing and publishing (see the module docs).
KILL_SLICE_ENV = "REPRO_SHARD_KILL_SLICE"

#: Largest control request the launcher reads (a spawn's argv and cwd).
_MAX_REQUEST = 1 << 16

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


def _exit_code(exc: SystemExit) -> int:
    """The status the interpreter would exit with for ``exc``."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def _run_forked(request: Dict[str, Any], out_fd: int, inherited: Tuple[int, ...]) -> NoReturn:
    """A forked child: run :func:`main` with its output on ``out_fd``, then exit."""
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        for fd in inherited:
            os.close(fd)
        os.dup2(out_fd, 1)
        os.dup2(out_fd, 2)
        os.close(out_fd)
        os.chdir(request["cwd"])
        # A fresh interpreter seeds numpy's legacy global generator from OS
        # entropy; without this every child would share the launcher's.
        # (The engine draws only from per-entry seeds.)
        legacy = sys.modules.get("numpy.random")
        if legacy is not None:
            legacy.seed()
        code = main(list(request["argv"]))
    except SystemExit as exc:
        code = _exit_code(exc)
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        # What a normal exit would do, minus the interpreter teardown:
        # atexit callbacks (site hooks dump their records there), then
        # the buffered streams.
        atexit._run_exitfuncs()
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def _launch(control_fd: int) -> NoReturn:
    """Serve fork requests on ``control_fd`` (module docs)."""
    import select
    import socket

    control = socket.socket(fileno=control_fd)
    wake_read, wake_write = os.pipe()
    os.set_blocking(wake_read, False)
    os.set_blocking(wake_write, False)
    # SIGCHLD writes to the wake-up pipe, so a child's exit interrupts the
    # select below and is reported at once.
    signal.set_wakeup_fd(wake_write)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    # Ctrl-C reaches the whole process group; the runner decides what stops.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    live: Set[int] = set()
    retiring = False

    def send(message: Dict[str, Any]) -> None:
        try:
            control.send(json.dumps(message).encode("utf8"))
        except OSError:
            os._exit(0)

    def spawn(request: Dict[str, Any], out_fd: int) -> Optional[int]:
        try:
            pid = os.fork()
        except OSError as exc:
            os.write(out_fd, f"shard worker launcher: fork failed: {exc}\n".encode("utf8"))
            os.close(out_fd)
            return None
        if pid == 0:
            _run_forked(request, out_fd, (control.fileno(), wake_read, wake_write))
        os.close(out_fd)
        live.add(pid)
        return pid

    while live or not retiring:
        ready = select.select([control, wake_read], [], [])[0]
        if wake_read in ready:
            try:
                while os.read(wake_read, 4096):
                    pass
            except BlockingIOError:
                pass
        if control in ready:
            try:
                data, fds, _flags, _address = socket.recv_fds(control, _MAX_REQUEST, 1)
            except OSError:
                data, fds = b"", []
            if not data:
                # The runner exited.  Its atexit callbacks belong to a
                # process that did no work: skip them.
                os._exit(0)
            request = json.loads(data.decode("utf8"))
            if request["op"] == "spawn":
                send({"forked": spawn(request, fds[0])})
            elif request["op"] == "kill" and request["pid"] in live:
                os.kill(request["pid"], signal.SIGKILL)
            elif request["op"] == "retire":
                retiring = True
        while live:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
            live.discard(pid)
            send({"exited": pid, "code": os.waitstatus_to_exitcode(status)})
    os._exit(0)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if sys.argv[1:2] == ["--launcher"]:
        _launch(int(sys.argv[2]))
    sys.exit(main())
