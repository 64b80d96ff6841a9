"""Property: a disk-cache hit is bit-identical to a fresh computation.

The persistent cache invariant carried over from PRs 1–4: results never
depend on the cache state.  The strongest form crosses process boundaries —
two *separate* Python processes sharing one ``cache_dir`` must produce
byte-for-byte equal :class:`repro.engine.BatchResult` blocks, with the
second process compiling entirely from the first one's disk entries.  Run
as real subprocesses (not forks) so nothing in-memory can leak between the
"processes".

The one disk tier is the **compiled-plan tier** (``plans/``): the second
process loads the *whole* compiled plan from one artifact — zero
decomposition or filter lookups — and still reproduces the first process
byte-for-byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

# The worker compiles and executes a fixed mixed plan (snapshot + Doppler,
# a repeated matrix, a repaired non-PSD matrix) against a shared cache_dir,
# then dumps the sample blocks and the cache/compile counters.
_WORKER = """
import json, sys
import numpy as np
from repro.engine import DopplerSpec, SimulationEngine, SimulationPlan

cache_dir, out_path = sys.argv[1], sys.argv[2]

base = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)
non_psd = np.array(
    [[1.0, 0.9, 0.9], [0.9, 1.0, 0.9], [0.9, 0.9, 0.2]], dtype=complex
)
plan = SimulationPlan()
plan.add(base, seed=11)
plan.add(2.0 * base, seed=12)
plan.add(base, seed=13)                 # repeated matrix, new seed
plan.add(non_psd, seed=14)              # exercises the PSD repair path
plan.add(base, seed=15, doppler=DopplerSpec(normalized_doppler=0.05, n_points=64))
plan.add(2.0 * base, seed=16, doppler=DopplerSpec(normalized_doppler=0.05, n_points=64))

engine = SimulationEngine(cache_dir=cache_dir)
result = engine.run(plan, 64)

stats = engine.cache.stats
np.savez(
    out_path + ".npz",
    **{f"block_{i}": block.samples for i, block in enumerate(result.blocks)},
)
json.dump(
    {
        "cache_hits": result.compile_report.cache_hits,
        "cache_misses": result.compile_report.cache_misses,
        "filter_cache_hits": result.compile_report.doppler_filter_cache_hits,
        "plan_cache_hits": result.compile_report.plan_cache_hits,
        "plan_disk_hits": engine.plan_cache.stats.hits,
        "decomposition_lookups": stats.lookups,
        "was_repaired": bool(
            engine.compile(plan).decomposition_for(3).was_repaired
        ),
        "summary": result.summary(),
    },
    open(out_path + ".json", "w"),
)
"""


def _run_worker(cache_dir: Path, out_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _WORKER, str(cache_dir), str(out_path)],
        check=True,
        env=env,
        timeout=300,
    )
    return json.loads((out_path.parent / (out_path.name + ".json")).read_text())


def _assert_blocks_byte_identical(cold_path: Path, warm_path: Path) -> None:
    with np.load(str(cold_path) + ".npz") as cold, np.load(
        str(warm_path) + ".npz"
    ) as warm:
        assert set(cold.files) == set(warm.files) == {f"block_{i}" for i in range(6)}
        for name in cold.files:
            # Byte-for-byte, not approximately equal.
            assert cold[name].tobytes() == warm[name].tobytes()


@pytest.mark.slow
class TestCrossProcessBitIdentity:
    def test_compiled_plan_tier_across_two_processes(self, tmp_path):
        # The executor-level tier: the second process loads the *whole*
        # compiled plan from one artifact — zero eigh/cholesky, zero
        # decomposition lookups, zero filter builds — and its execute_plan
        # output is byte-identical to the first process's fresh compile.
        cache_dir = tmp_path / "cache"
        cold_meta = _run_worker(cache_dir, tmp_path / "cold")
        warm_meta = _run_worker(cache_dir, tmp_path / "warm")

        assert cold_meta["plan_cache_hits"] == 0
        assert cold_meta["cache_misses"] == 3
        assert warm_meta["plan_cache_hits"] == 1
        assert warm_meta["plan_disk_hits"] >= 1
        # The whole point: the warm compile never touched the per-matrix
        # decomposition tier (the second engine.compile() in the worker is
        # itself another plan-cache hit).
        assert warm_meta["decomposition_lookups"] == 0
        assert warm_meta["cache_hits"] == warm_meta["cache_misses"] == 0
        assert "compiled-plan cache: 1 hit(s)" in warm_meta["summary"]
        # Diagnostics (PSD repair flags) survive the plan-artifact
        # round-trip.
        assert cold_meta["was_repaired"] and warm_meta["was_repaired"]

        _assert_blocks_byte_identical(tmp_path / "cold", tmp_path / "warm")

    def test_in_process_disk_hit_is_bit_identical(self, tmp_path):
        # The cheaper, same-process form of the invariant: a compile served
        # from disk produces the same bytes as one that computed fresh.
        from repro.engine import SimulationEngine, SimulationPlan

        base = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
        plan = SimulationPlan.from_specs([base, 3.0 * base], seed=5)

        fresh = SimulationEngine(cache_dir=tmp_path / "a").run(plan, 128)

        # The "a" directory already holds the artifact.
        warm_engine = SimulationEngine(cache_dir=tmp_path / "a")
        warm = warm_engine.run(plan, 128)
        assert warm.compile_report.plan_cache_hits == 1
        assert warm_engine.cache.stats.lookups == 0
        for block_fresh, block_warm in zip(fresh.blocks, warm.blocks):
            assert block_fresh.samples.tobytes() == block_warm.samples.tobytes()
