"""Property: concurrent eviction over one shared store is quarantine-or-miss.

Four real subprocesses hammer a single :class:`repro.engine.store.ArtifactStore`
namespace with a byte bound small enough that every round of spills forces
LRU eviction passes — the exact contention profile of sharded sweep workers
(:mod:`repro.shard`) sharing one ``cache_dir``.  The advisory eviction lock
must make the churn invisible to readers:

* **no reader ever surfaces a corruption error** — an artifact unlinked by a
  concurrent eviction pass is a plain miss, never a digest failure or an
  exception (``corruptions == 0`` in every worker);
* **per-tier counters are exactly conserved** — each worker's ``hits +
  misses`` equals the number of lookups it issued, under any interleaving;
* **the byte bound holds** — once the storm is over, a single eviction pass
  restores ``usage() <= max_bytes`` (transient overshoot while passes
  contend is allowed; a *standing* violation is not).

Every hit is also content-verified: a lookup may miss, but it may never
return the wrong payload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.store import ArtifactStore

_SRC = str(Path(__file__).resolve().parents[2] / "src")

N_WORKERS = 4
N_KEYS = 12
N_ROUNDS = 3

# Each worker opens a *fresh* store per round (a new shard attaching to the
# shared cache_dir), so keys evicted by some other process's pass get
# re-spilled instead of staying in the first store's no-spill set.  The byte
# bound is measured from a probe entry so roughly 3.5 entries fit: every
# round of 12 keys is guaranteed to churn through eviction passes.
_WORKER = """
import json, sys
import numpy as np
from repro.engine.store import ArtifactStore

worker_index, cache_dir, out_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
N_KEYS, N_ROUNDS = int(sys.argv[4]), int(sys.argv[5])


def _dump(payload):
    return {"values": payload["values"]}, {"key": payload["key"]}


def _load(arrays, meta):
    return {"values": arrays["values"], "key": meta["key"]}


def _payload(key_index):
    # Deterministic per-key contents so any hit can be content-verified.
    values = np.arange(512, dtype=np.float64) * (key_index + 1)
    return {"values": values, "key": f"k{key_index:03d}"}


def _make_store(directory, max_bytes):
    return ArtifactStore(
        "stress", dump=_dump, load=_load, cache_dir=directory, max_bytes=max_bytes
    )


# Measure one entry in a private scratch dir; every worker computes the
# same bound deterministically.
probe = _make_store(cache_dir + f"/probe-{worker_index}", 1 << 30)
probe.put("probe", _payload(0))
entry_bytes = probe.usage()[1]
assert entry_bytes > 0
max_bytes = int(3.5 * entry_bytes)

counters = {
    "lookups": 0, "puts": 0, "bad_hits": 0,
    "hits": 0, "misses": 0, "corruptions": 0, "evictions": 0,
}
for round_index in range(N_ROUNDS):
    store = _make_store(cache_dir, max_bytes)
    # Worker-specific rotation: everyone touches every key, nobody walks
    # the keyspace in the same order, so evictions hit keys others are
    # about to read.
    offset = worker_index * 3 + round_index
    for step in range(N_KEYS):
        key_index = (step + offset) % N_KEYS
        payload = _payload(key_index)
        counters["lookups"] += 1
        found = store.lookup(payload["key"])
        if found is None:
            store.put(payload["key"], payload)
            counters["puts"] += 1
        elif (
            found["key"] != payload["key"]
            or found["values"].tobytes() != payload["values"].tobytes()
        ):
            counters["bad_hits"] += 1
    stats = store.stats
    counters["hits"] += stats.hits
    counters["misses"] += stats.misses
    counters["corruptions"] += stats.corruptions
    counters["evictions"] += stats.evictions

counters["max_bytes"] = max_bytes
json.dump(counters, open(out_path, "w"))
"""


def _stress_dump(payload):
    return {"values": payload["values"]}, {"key": payload["key"]}


def _stress_load(arrays, meta):
    return {"values": arrays["values"], "key": meta["key"]}


@pytest.mark.slow
class TestConcurrentEvictionStress:
    def test_four_processes_churning_one_tiny_store(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")

        out_paths = [tmp_path / f"worker-{index}.json" for index in range(N_WORKERS)]
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _WORKER,
                    str(index),
                    str(cache_dir),
                    str(out_paths[index]),
                    str(N_KEYS),
                    str(N_ROUNDS),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for index in range(N_WORKERS)
        ]
        outputs = [proc.communicate(timeout=300)[0] for proc in procs]
        for proc, output in zip(procs, outputs):
            assert proc.returncode == 0, output

        reports = [json.loads(path.read_text()) for path in out_paths]
        max_bytes = reports[0]["max_bytes"]
        assert all(report["max_bytes"] == max_bytes for report in reports)

        for report in reports:
            # Conservation: every lookup resolved to exactly one of hit or
            # miss — no interleaving loses or double-counts an outcome.
            assert report["hits"] + report["misses"] == report["lookups"]
            # Quarantine-or-miss, never an error: artifacts unlinked by a
            # concurrent eviction pass read as plain misses.
            assert report["corruptions"] == 0
            assert report["bad_hits"] == 0
            assert report["lookups"] == N_KEYS * N_ROUNDS

        # The tiny bound actually forced churn somewhere.
        assert sum(report["evictions"] for report in reports) >= 1
        assert sum(report["puts"] for report in reports) > N_KEYS

        # Standing byte bound: with the storm over, one uncontended pass
        # restores the invariant (no worker left it violated forever).
        store = ArtifactStore(
            "stress",
            dump=_stress_dump,
            load=_stress_load,
            cache_dir=cache_dir,
            max_bytes=max_bytes,
        )
        assert store.evict_pass()
        n_entries, total_bytes = store.usage()
        assert total_bytes <= max_bytes
        assert n_entries >= 1
        # The churn never produced a standing quarantine file either: the
        # eviction lock means no reader ever saw torn bytes to quarantine.
        assert not list((cache_dir / "stress").glob("*.quarantine"))
