"""Layer spans for the benchmark, recorded from outside the program.

``repro`` records no spans of its own, so a traced run (``--trace 1``)
wraps the function at each layer boundary by attribute replacement and
records one ``(layer, op, lane, start, end)`` tuple per call:

* ``layer`` — a name from :data:`PARENT`;
* ``op`` — the benchmark operation the call served, read from the plan
  labels (``op<k>.<i>``) the workloads put on every entry, so work done in
  a server thread or a shard worker process is charged to the request or
  sharded run that caused it;
* ``lane`` — ``pid:thread``, so concurrent calls never nest by accident;
* ``start``/``end`` — ``time.perf_counter()``, which is the system-wide
  monotonic clock on Linux and so comparable across processes.

Child processes (the server, shard workers) install the same probes at
start-up through ``hook/sitecustomize.py`` and write their spans as JSON
files into a spans directory when they exit; :func:`layer_split` merges
them with the benchmark's own and turns them into self times per layer.
A probe whose target no longer exists fails the traced run rather than
reading as a 0 ms layer, which would look like a speed-up; the end-to-end
run installs no probes, so it keeps working when internals move.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Each layer and the layer whose span encloses it.  ``op`` is the root:
#: one benchmark operation (a sweep run, an HTTP request, a sharded run),
#: recorded by the workload itself.
PARENT = {
    "plan": "op",
    "run": "op",
    "compile": "run",
    "execute": "run",
    "lookup": "compile",
    "white": "execute",
    "doppler": "execute",
    "color": "execute",
    "fading": "execute",
}

#: The layers reported by a traced run, in stack order.
LAYERS = ("op",) + tuple(PARENT)

Span = Tuple[str, Optional[int], str, float, float]

_CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None
)


def op_of_label(label: Any) -> Optional[int]:
    """The operation number in an ``op<k>.<i>`` label, else ``None``."""
    if isinstance(label, str) and label.startswith("op"):
        head = label[2:].split(".", 1)[0]
        if head.isdigit():
            return int(head)
    return None


def op_of_plan(plan: Any) -> Optional[int]:
    """The operation a plan (or compiled plan, or plan slice) belongs to."""
    while not hasattr(plan, "entries") and hasattr(plan, "plan"):
        plan = plan.plan
    entries = getattr(plan, "entries", None)
    if not entries:
        return None
    return op_of_label(entries[0].label)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Set when the measuring window closes, so the benchmark's own
        #: reference runs (whose plans carry ``op<k>`` labels too) are never
        #: charged to the program's layers.
        self.paused = False

    def record(self, layer: str, op: Optional[int], start: float, end: float) -> None:
        if self.paused:
            return
        lane = f"{os.getpid()}:{threading.get_ident()}"
        self.spans.append((layer, op, lane, start, end))

    def dump(self, spans_dir: Path) -> None:
        """Write this process's spans to ``spans_dir/<pid>.json``."""
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.spans), encoding="utf8")


@contextlib.contextmanager
def op_scope(op: int) -> Iterator[None]:
    """Charge calls made inside the ``with`` block to operation ``op``."""
    token = _CURRENT_OP.set(op)
    try:
        yield
    finally:
        _CURRENT_OP.reset(token)


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` → ``(owner object, attribute name)``."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = dotted.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(path)
    return owner, attr


def _probe(
    recorder: Recorder,
    layer: str,
    fn: Callable,
    *,
    enter_op: Optional[Callable[[tuple], Optional[int]]] = None,
    result_op: Optional[Callable[[Any], Optional[int]]] = None,
) -> Callable:
    """Wrap ``fn`` so each call records one ``layer`` span.

    ``enter_op`` reads the operation from the call's arguments and makes it
    current for nested calls (a pool thread or worker process has no
    current operation of its own); ``result_op`` reads it from the result,
    for decoders that only learn the labels by running.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        op = _CURRENT_OP.get()
        token = None
        if enter_op is not None:
            entered = enter_op(args)
            if entered is not None:
                op = entered
                token = _CURRENT_OP.set(op)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if token is not None:
                _CURRENT_OP.reset(token)
        if result_op is not None:
            op = result_op(result)
        recorder.record(layer, op, start, end)
        return result

    return wrapper


def install() -> Recorder:
    """Wrap every layer boundary; return the store.

    Raises ``ImportError`` or ``AttributeError`` when a target is gone.
    """
    recorder = Recorder()
    targets = [
        ("repro.engine.plan:SimulationPlan.add", "plan", {}),
        (
            "repro.service.http:plan_from_payload",
            "plan",
            {"result_op": lambda result: op_of_plan(result[0])},
        ),
        (
            "repro.shard.slicing:slice_from_payload",
            "plan",
            {"result_op": lambda result: op_of_plan(result[0])},
        ),
        (
            "repro.engine.engine:SimulationEngine.run",
            "run",
            {"enter_op": lambda args: op_of_plan(args[1])},
        ),
        ("repro.engine.engine:compile_plan", "compile", {}),
        ("repro.engine.engine:execute_plan", "execute", {}),
        ("repro.engine.plancache:CompiledPlanCache.lookup", "lookup", {}),
        ("repro.engine.execute:complex_gaussian", "white", {}),
        ("repro.engine.execute:batched_doppler_blocks", "doppler", {}),
        ("repro.engine.execute:_matmul_into", "color", {}),
        ("repro.engine.execute:_apply_fading", "fading", {}),
    ]
    for path, layer, how in targets:
        owner, attr = _resolve(path)
        setattr(owner, attr, _probe(recorder, layer, getattr(owner, attr), **how))
    return recorder


def load_spans(spans_dir: Path) -> List[Span]:
    """Every span child processes wrote into ``spans_dir``."""
    spans: List[Span] = []
    if spans_dir.is_dir():
        for path in sorted(spans_dir.glob("*.json")):
            spans.extend(tuple(span) for span in json.loads(path.read_text("utf8")))
    return spans


def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_split(spans: Iterable[Span], n_ops: int) -> Dict[str, float]:
    """Mean self time per operation of every layer, in milliseconds.

    A span's self time is its duration minus the part of it covered by its
    child layers' spans of the same operation — on the same lane, except
    under the root ``op`` span, whose children run wherever the request was
    served.  Spans not charged to an operation (set-up, warm-up) are left
    out.
    """
    spans = [span for span in spans if span[1] is not None]
    children: Dict[Tuple, List[Tuple[float, float]]] = defaultdict(list)
    for layer, op, lane, start, end in spans:
        parent = PARENT.get(layer)
        if parent is not None:
            children[(parent, op, None if parent == "op" else lane)].append(
                (start, end)
            )
    totals = dict.fromkeys(LAYERS, 0.0)
    for layer, op, lane, start, end in spans:
        if layer not in totals:
            continue
        key = (layer, op, None if layer == "op" else lane)
        self_time = (end - start) - _covered(children.get(key, ()), start, end)
        totals[layer] += self_time
    return {layer: 1e3 * total / max(1, n_ops) for layer, total in totals.items()}
