"""Property: a sharded sweep is bit-identical to the single-process run.

Standing invariant 7: sharding is pure orchestration.  ``run_sharded``
splits a plan across real worker subprocesses that share one ``cache_dir``,
and the merged result must be byte-for-byte equal to ``engine.run(plan)``
in a single fully detached process — across mixed Doppler/fading entries,
non-int seeds, and Doppler block sizes that do not divide ``n_samples``.

The suite also proves the two operational claims of the sharding layer:

* **warm reruns** — a rerun over the same ``cache_dir`` loads every
  shard's whole compiled plan from the shared ``plans/`` tier, observed
  through the compile report each worker publishes;
* **crash tolerance** — a worker SIGKILLed mid-slice marks its slice
  failed by index, the survivors still merge-collect, and a
  ``retry_failed`` rerun against the same ``work_dir`` and now-warm cache
  completes bit-identically while reusing the published survivor outputs.
"""

import os

import numpy as np
import pytest

from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    DopplerSpec,
    FadingSpec,
    SimulationEngine,
    SimulationPlan,
)
from repro.shard import run_sharded
from repro.shard.worker import KILL_SLICE_ENV

N_SAMPLES = 96  # not a multiple of the Doppler block size below
_DOPPLER = DopplerSpec(normalized_doppler=0.05, n_points=64)


def _mixed_plan() -> SimulationPlan:
    """Nine mixed entries over two unique matrices and one Doppler key.

    Every slice of a 3-shard partition mixes snapshot, fading and Doppler
    entries over the same two matrices and one filter.
    """
    base = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)
    scaled = 2.0 * base
    rician = FadingSpec(model="rician", shape=3.0)
    shadowed = FadingSpec(model="nakagami", shape=2.5, shadowing_sigma_db=1.0)

    plan = SimulationPlan()
    # Slice 0.
    plan.add(base, seed=11, label="s0-base")
    plan.add(scaled, seed=np.int64(12), fading=rician, label="s0-rician")
    plan.add(base, seed=13, doppler=_DOPPLER, label="s0-doppler")
    # Slices 1 and 2 — repeats with fresh seeds, fading, and Doppler.
    plan.add(base, seed=21, fading=shadowed, label="s1-shadowed")
    plan.add(scaled, seed=22, doppler=_DOPPLER, label="s1-doppler")
    plan.add(base, seed=23, label="s1-base")
    plan.add(scaled, seed=31, label="s2-scaled")
    plan.add(base, seed=32, doppler=_DOPPLER, label="s2-doppler")
    plan.add(scaled, seed=33, fading=rician, label="s2-rician")
    return plan


def _solo_reference(plan: SimulationPlan):
    """Run ``plan`` in this process with every cache tier detached."""
    engine = SimulationEngine(
        cache=DecompositionCache(),
        filter_cache=DopplerFilterCache(),
        plan_cache=CompiledPlanCache(),
    )
    return engine.run(plan, N_SAMPLES)


def _assert_bit_identical(merged, reference) -> None:
    assert len(merged.blocks) == len(reference.blocks)
    for index, (got, want) in enumerate(zip(merged.blocks, reference.blocks)):
        assert got.samples.tobytes() == want.samples.tobytes(), index
        assert got.variances.tobytes() == want.variances.tobytes(), index
        assert got.metadata["plan_index"] == index
        assert got.metadata["label"] == want.metadata.get("label")


@pytest.mark.slow
class TestShardedBitIdentity:
    def test_warm_rerun_loads_whole_plans_from_shared_cache(self, tmp_path):
        plan = _mixed_plan()
        reference = _solo_reference(plan)
        cache_dir = tmp_path / "cache"

        cold = run_sharded(
            plan, N_SAMPLES, n_shards=3, cache_dir=cache_dir,
            work_dir=tmp_path / "work-cold",
        )
        assert cold.ok
        assert cold.failed == ()
        assert [s.start for s in cold.slices] == [0, 3, 6]
        _assert_bit_identical(cold.merged, reference)
        warm = run_sharded(
            plan, N_SAMPLES, n_shards=3, cache_dir=cache_dir,
            work_dir=tmp_path / "work-warm",
        )
        assert warm.ok
        _assert_bit_identical(warm.merged, reference)
        # Every shard of the warm run loads its whole compiled plan from
        # the shared plans/ tier — no per-matrix work at all.
        for meta in warm.metas:
            assert meta["compile_report"]["plan_cache_hits"] == 1
            assert meta["compile_report"]["cache_misses"] == 0
            assert meta["tiers"]["plans"]["disk_hits"] == 1
        assert warm.tier_totals()["plan_cache_hits"] == 3


@pytest.mark.slow
class TestShardCrashTolerance:
    def test_sigkilled_slice_reported_then_retried_bit_identically(self, tmp_path):
        plan = _mixed_plan()
        reference = _solo_reference(plan)
        cache_dir = tmp_path / "cache"
        work_dir = tmp_path / "work"

        lines = []
        broken = run_sharded(
            plan,
            N_SAMPLES,
            n_shards=3,
            cache_dir=cache_dir,
            work_dir=work_dir,
            extra_env={KILL_SLICE_ENV: "1"},
            progress=lambda index, line: lines.append((index, line)),
        )
        # The killed worker's slice is failed by index; survivors are kept.
        assert broken.failed == (1,)
        assert broken.merged is None
        assert not broken.ok
        assert broken.results[0] is not None
        assert broken.results[2] is not None
        assert broken.results[1] is None
        assert any("FAILED" in line for index, line in lines if index == 1)

        retry = run_sharded(
            plan,
            N_SAMPLES,
            n_shards=3,
            cache_dir=cache_dir,
            work_dir=work_dir,
            retry_failed=True,
            progress=lambda index, line: lines.append((index, line)),
        )
        assert retry.ok
        assert retry.failed == ()
        _assert_bit_identical(retry.merged, reference)
        # Survivor outputs were reused from the work_dir, and the retried
        # slice compiled warm: its plan artifact was already published to
        # the shared cache before the worker was killed.
        reused = [line for index, line in lines if "reused published" in line]
        assert len(reused) == 2
        assert retry.metas[1]["compile_report"]["plan_cache_hits"] == 1

    def test_worker_env_drops_inherited_cache_dir(self, tmp_path, monkeypatch):
        # An inherited REPRO_CACHE_DIR must not re-route the shared tiers:
        # only the explicit cache_dir may act inside workers.
        hijack = tmp_path / "hijack"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(hijack))
        plan = SimulationPlan()
        plan.add(np.eye(2, dtype=complex), seed=5, label="only")
        result = run_sharded(
            plan,
            8,
            n_shards=1,
            cache_dir=tmp_path / "cache",
            work_dir=tmp_path / "work",
        )
        assert result.ok
        assert not hijack.exists()
        assert any(
            (tmp_path / "cache").glob("**/*.npz")
        ), "explicit cache_dir saw no spills"
        assert os.environ["REPRO_CACHE_DIR"] == str(hijack)  # parent untouched
