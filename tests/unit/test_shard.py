"""Unit tests for the sharding layer (:mod:`repro.shard`).

Covers the pure pieces in-process — partitioning, the wire round-trip of
:class:`PlanSlice` payloads (including the regression demanded by ISSUE 10:
non-trivial :class:`FadingSpec`\\ s and non-int seeds survive the trip, and
slices never coalesce onto an unrelated plan's compiled-plan cache entry;
binary covariances round-trip byte for byte and malformed ones are
specification errors), result merging, and the CLI surface.  Small
subprocess runs pin the runner's edges: worker timeouts, retries that must
not reuse stale outputs, malformed worker metadata, torn ``.bin`` outputs
(failed slices, never exceptions or oversized allocations), the concurrent
start (every worker spawns at once, an
early worker death leaves the rest running, BLAS threads are split), the
process contract of a worker forked from the launcher (exit codes,
signals, ``poll``, the timeout kill, the no-fork fallback) and the
launcher's lifetime.  Bit-identity across shards is exercised by
``tests/property/test_property_shard.py``.
"""

import base64
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompileReport, DopplerSpec, FadingSpec, SimulationPlan
from repro.engine.plancache import compiled_plan_cache_key
from repro.engine.result import BatchResult
from repro.exceptions import SpecificationError
from repro.service.protocol import seed_from_payload, seed_to_payload
from repro.shard import (
    PlanSlice,
    merge_compile_reports,
    merge_results,
    partition_plan,
    slice_from_payload,
    slice_to_payload,
)
from repro.shard.runner import _can_fork
from repro.types import GaussianBlock

_BASE = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)


def _sweep_plan(n_entries: int) -> SimulationPlan:
    plan = SimulationPlan()
    for index in range(n_entries):
        plan.add(_BASE * (1.0 + index), seed=100 + index, label=f"entry-{index}")
    return plan


#: Doubles a binary covariance must carry bit for bit: signed zeros,
#: subnormals and the edge of the finite range.
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e308, -1e308]



def _wire(payload) -> bytes:
    """A (possibly malformed) slice payload object as wire bytes."""
    return json.dumps(payload).encode("utf8")

@st.composite
def _hermitian_matrices(draw):
    """Valid covariances, N = 1..8, with edge doubles in both parts."""
    n = draw(st.integers(min_value=1, max_value=8))
    part = st.sampled_from(_EDGE_DOUBLES) | st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False
    )
    matrix = np.zeros((n, n), dtype=complex)
    for row in range(n):
        # The diagonal is a positive power with a (near-)zero imaginary part.
        diagonal = draw(
            st.sampled_from([5e-324, 2.5e-310, 1e308])
            | st.floats(min_value=1e-3, max_value=1e3)
        )
        matrix.real[row, row] = diagonal
        matrix.imag[row, row] = draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
        for column in range(row + 1, n):
            real, imag = draw(part), draw(part)
            matrix.real[row, column] = matrix.real[column, row] = real
            matrix.imag[row, column] = imag
            matrix.imag[column, row] = -imag
    return matrix


class TestPartitionPlan:
    def test_contiguous_balanced_slices(self):
        plan = _sweep_plan(10)
        slices = partition_plan(plan, 3)
        assert [s.index for s in slices] == [0, 1, 2]
        assert all(s.n_shards == 3 for s in slices)
        sizes = [s.n_entries for s in slices]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # Contiguous tiling: starts are the running sum of sizes, and the
        # entries land in original order with seeds/labels intact.
        cursor = 0
        for plan_slice in slices:
            assert plan_slice.start == cursor
            for offset, entry in enumerate(plan_slice.plan):
                original = plan[cursor + offset]
                assert entry.seed == original.seed
                assert entry.label == original.label
            cursor += plan_slice.n_entries

    def test_more_shards_than_entries_drops_empties(self):
        slices = partition_plan(_sweep_plan(5), 8)
        assert len(slices) == 5
        assert all(s.n_entries == 1 for s in slices)
        assert all(s.n_shards == 5 for s in slices)

    def test_single_shard_is_whole_plan(self):
        plan = _sweep_plan(4)
        (only,) = partition_plan(plan, 1)
        assert only.start == 0
        assert only.n_entries == len(plan)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SpecificationError):
            partition_plan(_sweep_plan(3), 0)
        with pytest.raises(SpecificationError):
            partition_plan(SimulationPlan(), 2)


class TestSliceWireRoundTrip:
    """Regression (ISSUE 10 satellite): fading specs and non-int seeds
    survive the slice payload, and decoded slices key-purely address the
    compiled-plan cache."""

    def _fancy_plan(self) -> SimulationPlan:
        plan = SimulationPlan()
        plan.add(_BASE, seed=None, label="plain")
        plan.add(
            2.0 * _BASE,
            seed=np.int64(7),
            fading=FadingSpec(model="rician", shape=3.5),
            label="rician",
        )
        plan.add(
            _BASE,
            seed=11,
            fading=FadingSpec(model="weibull", shape=1.75, shadowing_sigma_db=2.0),
            doppler=DopplerSpec(normalized_doppler=0.05, n_points=64),
            label="shadowed-doppler",
        )
        plan.add(
            3.0 * _BASE,
            seed=np.random.Generator(np.random.PCG64(1234)),
            label="generator",
        )
        return plan

    def test_round_trip_preserves_fading_and_seeds(self):
        plan = self._fancy_plan()
        (plan_slice,) = partition_plan(plan, 1)
        # Through the wire bytes a worker reads off disk.
        decoded, n_samples = slice_from_payload(slice_to_payload(plan_slice, 96))

        assert n_samples == 96
        assert (decoded.index, decoded.n_shards, decoded.start) == (0, 1, 0)
        assert len(decoded.plan) == len(plan)
        for entry, original in zip(decoded.plan, plan):
            assert entry.label == original.label
            assert (entry.doppler is None) == (original.doppler is None)
            if original.fading is None:
                assert entry.fading is None
            else:
                assert entry.fading.model == original.fading.model
                assert entry.fading.shape == original.fading.shape
                assert (
                    entry.fading.shadowing_sigma_db
                    == original.fading.shadowing_sigma_db
                )
                assert entry.fading.fading_token() == original.fading.fading_token()

        assert decoded.plan[0].seed is None
        assert decoded.plan[1].seed == 7
        assert decoded.plan[2].seed == 11
        # The generator seed restores to the *identical* stream.
        reference = np.random.Generator(np.random.PCG64(1234))
        restored = decoded.plan[3].seed
        assert isinstance(restored, np.random.Generator)
        assert (
            restored.standard_normal(16).tobytes()
            == reference.standard_normal(16).tobytes()
        )

    def test_decoded_slice_hashes_to_the_same_plan_key(self):
        plan = self._fancy_plan()
        for plan_slice in partition_plan(plan, 2):
            decoded, _ = slice_from_payload(slice_to_payload(plan_slice, 64))
            assert compiled_plan_cache_key(decoded.plan) == compiled_plan_cache_key(
                plan_slice.plan
            )

    def test_slices_never_coalesce_with_each_other_or_unrelated_plans(self):
        plan = self._fancy_plan()
        first, second = partition_plan(plan, 2)
        key_first = compiled_plan_cache_key(first.plan)
        key_second = compiled_plan_cache_key(second.plan)
        assert key_first != key_second

        # An unrelated plan differing *only* in fading must key apart from
        # both slices — fading_token purity keeps the plans/ tier honest.
        unrelated = SimulationPlan()
        for entry in first.plan:
            unrelated.add(
                entry.spec,
                seed=entry.seed,
                label=entry.label,
                doppler=entry.doppler,
                fading=FadingSpec(model="nakagami", shape=2.0),
            )
        key_unrelated = compiled_plan_cache_key(unrelated)
        assert key_unrelated not in (key_first, key_second)

        # Seeds and labels are execution-time inputs: a re-seeded copy of a
        # slice *should* share its compiled artifact.
        reseeded = SimulationPlan()
        for entry in second.plan:
            reseeded.add(
                entry.spec,
                seed=9999,
                label="renamed",
                doppler=entry.doppler,
                fading=entry.fading,
            )
        assert compiled_plan_cache_key(reseeded) == key_second

    def test_wire_bytes_are_pinned(self):
        """A ``--retry-failed`` rerun reuses an output only when the slice
        bytes hash the same, so the encoding must not drift."""
        plan = SimulationPlan()
        plan.add(np.array([[1.0, 0.5j], [-0.5j, 2.0]]), seed=7, label="pin")
        (plan_slice,) = partition_plan(plan, 1)
        assert slice_to_payload(plan_slice, 64) == (
            b'{"entries": [{"coloring_method": "eigen", "doppler": null, '
            b'"epsilon": 1e-06, "fading": null, "label": "pin", "matrix": '
            b'{"c16": "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAA4D8AAAAAAAAAgAAAAAAAAOC/'
            b'AAAAAAAAAEAAAAAAAAAAAA==", "n": 2}, "psd_method": "clip", '
            b'"sample_variance": 1.0, "seed": 7}], "n_samples": 64, "slice": '
            b'{"index": 0, "n_shards": 1, "start": 0}, "version": 1}'
        )
        digests = [
            hashlib.sha256(slice_to_payload(plan_slice, 96)).hexdigest()
            for n_shards in (1, 2)
            for plan_slice in partition_plan(self._fancy_plan(), n_shards)
        ]
        assert digests == [
            "4fd968d832b27cf20139e06892700af541e51457e36eb271c5464e89c371385d",
            "697d317050b4694896863f029dcf5ffb647524e83c2f9abee203b3771e45ead6",
            "e630724039d6ede564b2d33aa9478001311401bd73e92c0b1f496af825eb8ffc",
        ]

    @pytest.mark.parametrize("field", ["epsilon", "sample_variance"])
    def test_over_range_number_is_a_specification_error(self, field):
        (plan_slice,) = partition_plan(_sweep_plan(2), 1)
        payload = json.loads(slice_to_payload(plan_slice, 32))
        payload["entries"][1][field] = 10**400
        with pytest.raises(SpecificationError, match="entry at index 1"):
            slice_from_payload(_wire(payload))

    def test_malformed_payloads_rejected(self):
        plan = _sweep_plan(2)
        (plan_slice,) = partition_plan(plan, 1)
        good = json.loads(slice_to_payload(plan_slice, 32))

        deep = b"[" * 100_000 + b"]" * 100_000
        for bad in (b"not json", b"\xff\xfe", deep, {"version": 1}, _wire("not a dict")):
            with pytest.raises(SpecificationError):
                slice_from_payload(bad)
        bad_version = dict(good, version=99)
        with pytest.raises(SpecificationError):
            slice_from_payload(_wire(bad_version))
        no_slice = {key: value for key, value in good.items() if key != "slice"}
        with pytest.raises(SpecificationError):
            slice_from_payload(_wire(no_slice))
        bad_meta = dict(good, slice={"index": "x"})
        with pytest.raises(SpecificationError):
            slice_from_payload(_wire(bad_meta))

    @given(matrix=_hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_binary_covariance_round_trip_is_byte_exact(self, matrix):
        plan = SimulationPlan()
        plan.add(matrix, seed=3)
        (plan_slice,) = partition_plan(plan, 1)
        decoded, _ = slice_from_payload(slice_to_payload(plan_slice, 8))
        assert decoded.plan[0].spec.matrix.tobytes() == matrix.tobytes()
        assert compiled_plan_cache_key(decoded.plan) == compiled_plan_cache_key(
            plan_slice.plan
        )

    @pytest.mark.parametrize(
        "matrix",
        [
            {"n": 1, "c16": "!" * 24},
            {"n": 1, "c16": "é" * 24},
            {"n": 1, "c16": "A" * 24},
            {"n": 1, "c16": base64.b64encode(bytes(15)).decode("ascii")},
            {"n": 2, "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": 0, "c16": ""},
            {"n": -1, "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": 1.0, "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": True, "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": "1", "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": 10**9, "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": 10**30, "c16": base64.b64encode(bytes(16)).decode("ascii")},
            {"n": 1, "c16": None},
            {"n": 1, "c16": [0.0] * 2},
            {"n": 1},
            {"re": [[1.0]], "im": [[0.0]]},
            "AAAA",
        ],
        ids=[
            "not-base64",
            "non-ascii",
            "18-bytes",
            "15-bytes",
            "n-too-large",
            "n-zero",
            "n-negative",
            "n-float",
            "n-bool",
            "n-string",
            "n-missing",
            "n-huge",
            "n-huger",
            "c16-null",
            "c16-list",
            "c16-missing",
            "float-lists",
            "not-an-object",
        ],
    )
    def test_malformed_binary_covariance_is_a_specification_error(self, matrix):
        (plan_slice,) = partition_plan(_sweep_plan(2), 1)
        payload = json.loads(slice_to_payload(plan_slice, 32))
        payload["entries"][1]["matrix"] = matrix
        with pytest.raises(SpecificationError):
            slice_from_payload(_wire(payload))

    @pytest.mark.parametrize("value", [float("inf"), 1.5, True], ids=repr)
    @pytest.mark.parametrize("field", ["index", "n_shards", "start"])
    def test_slice_fields_must_be_integers(self, field, value):
        (plan_slice,) = partition_plan(_sweep_plan(2), 1)
        payload = json.loads(slice_to_payload(plan_slice, 32))
        payload["slice"][field] = value
        with pytest.raises(SpecificationError, match=f"slice.{field} must be an integer"):
            slice_from_payload(_wire(payload))


class TestSeedPayloads:
    def test_none_and_ints_pass_through(self):
        assert seed_to_payload(None) is None
        assert seed_to_payload(5) == 5
        assert seed_to_payload(np.int64(6)) == 6
        assert type(seed_to_payload(np.int64(6))) is int
        assert seed_from_payload(None) is None
        assert seed_from_payload(7) == 7

    def test_generator_state_round_trips_every_family(self):
        for bit_generator in (np.random.PCG64, np.random.MT19937, np.random.SFC64):
            source = np.random.Generator(bit_generator(42))
            source.standard_normal(3)  # advance: mid-stream states too
            payload = json.loads(json.dumps(seed_to_payload(source)))
            restored = seed_from_payload(payload)
            assert (
                restored.standard_normal(8).tobytes()
                == source.standard_normal(8).tobytes()
            )

    def test_unsupported_seed_types_rejected(self):
        with pytest.raises(SpecificationError):
            seed_to_payload("twelve")
        with pytest.raises(SpecificationError):
            seed_to_payload(3.5)

    def test_malformed_generator_payloads_rejected(self):
        with pytest.raises(SpecificationError):
            seed_from_payload({"kind": "generator"})
        with pytest.raises(SpecificationError):
            seed_from_payload(
                {"kind": "generator", "state": {"bit_generator": "NoSuchRNG"}}
            )


def _report(n_entries: int, **overrides) -> CompileReport:
    fields = dict(
        n_entries=n_entries,
        n_groups=1,
        n_unique_matrices=n_entries,
        cache_hits=0,
        cache_misses=n_entries,
        compile_seconds=0.25,
    )
    fields.update(overrides)
    return CompileReport(**fields)


def _partial(plan_slice: PlanSlice, n_samples: int = 8, **report_overrides) -> BatchResult:
    blocks = []
    for offset in range(plan_slice.n_entries):
        entry_index = plan_slice.start + offset
        blocks.append(
            GaussianBlock(
                samples=np.full((2, n_samples), entry_index, dtype=complex),
                variances=np.ones(2),
                metadata={"plan_index": offset, "label": f"entry-{entry_index}"},
            )
        )
    return BatchResult(
        blocks=tuple(blocks),
        n_samples=n_samples,
        compile_report=_report(plan_slice.n_entries, **report_overrides),
        execute_seconds=0.1,
        backend="numpy",
    )


class TestMergeResults:
    def test_out_of_order_partials_merge_plan_ordered(self):
        slices = partition_plan(_sweep_plan(7), 3)
        partials = [_partial(s) for s in slices]
        shuffled = [slices[2], slices[0], slices[1]]
        merged = merge_results(
            shuffled,
            [partials[2], partials[0], partials[1]],
            n_samples=8,
            wall_seconds=1.5,
            backend="numpy",
        )
        assert len(merged.blocks) == 7
        for index, block in enumerate(merged.blocks):
            # Whole-plan metadata restored and payloads in original order.
            assert block.metadata["plan_index"] == index
            assert block.samples[0, 0] == index
        assert merged.n_samples == 8
        assert merged.execute_seconds == 1.5

    def test_compile_counters_summed_and_seconds_maxed(self):
        slices = partition_plan(_sweep_plan(6), 2)
        partials = [
            _partial(slices[0], plan_cache_hits=1, compile_seconds=0.5),
            _partial(slices[1], doppler_filters_built=2, compile_seconds=2.0),
        ]
        merged = merge_results(slices, partials, n_samples=8)
        report = merged.compile_report
        assert report.n_entries == 6
        assert report.cache_misses == 6
        assert report.plan_cache_hits == 1
        assert report.doppler_filters_built == 2
        assert report.compile_seconds == 2.0

    def test_gap_and_overlap_rejected(self):
        slices = partition_plan(_sweep_plan(6), 3)
        partials = [_partial(s) for s in slices]
        with pytest.raises(SpecificationError, match="missing or overlapping"):
            merge_results(
                [slices[0], slices[2]], [partials[0], partials[2]], n_samples=8
            )
        overlapping = PlanSlice(
            index=1, n_shards=3, start=1, plan=slices[1].plan
        )
        with pytest.raises(SpecificationError, match="missing or overlapping"):
            merge_results(
                [slices[0], overlapping, slices[2]],
                [partials[0], _partial(overlapping), partials[2]],
                n_samples=8,
            )

    def test_block_count_mismatch_rejected(self):
        slices = partition_plan(_sweep_plan(4), 2)
        short = _partial(slices[0])
        short = BatchResult(
            blocks=short.blocks[:-1],
            n_samples=short.n_samples,
            compile_report=short.compile_report,
            execute_seconds=short.execute_seconds,
            backend=short.backend,
        )
        with pytest.raises(SpecificationError, match="blocks"):
            merge_results(slices, [short, _partial(slices[1])], n_samples=8)

    def test_length_mismatch_and_empty_rejected(self):
        slices = partition_plan(_sweep_plan(4), 2)
        with pytest.raises(SpecificationError):
            merge_results(slices, [_partial(slices[0])], n_samples=8)
        with pytest.raises(SpecificationError):
            merge_results([], [], n_samples=8)
        with pytest.raises(SpecificationError):
            merge_compile_reports([])


class TestShardCLI:
    def test_shard_command_parses_with_defaults(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(["shard", "--cache-dir", str(tmp_path)])
        assert args.command == "shard"
        assert args.cache_dir == tmp_path
        assert args.shards == 2
        assert args.entries == 8
        assert args.samples == 64
        assert not args.retry_failed
        assert not args.check

    def test_shard_command_requires_cache_dir(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard"])
        assert "--cache-dir" in capsys.readouterr().err

    def test_shard_command_parses_overrides(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "shard",
                "--shards", "4",
                "--entries", "12",
                "--branches", "3",
                "--samples", "96",
                "--doppler-every", "3",
                "--work-dir", str(tmp_path / "work"),
                "--cache-dir", str(tmp_path / "cache"),
                "--retry-failed",
                "--check",
            ]
        )
        assert args.shards == 4
        assert args.entries == 12
        assert args.doppler_every == 3
        assert args.retry_failed and args.check

    def test_retry_failed_requires_work_dir(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="work-dir"):
            main(["shard", "--retry-failed", "--cache-dir", str(tmp_path)])

    def test_invalid_counts_rejected(self, tmp_path):
        from repro.cli import main

        for argv in (
            ["shard", "--shards", "0"],
            ["shard", "--entries", "0"],
            ["shard", "--samples", "0"],
        ):
            with pytest.raises(SystemExit):
                main(argv + ["--cache-dir", str(tmp_path)])


class TestWorkerTimeout:
    """``run_sharded(timeout=)`` holds even when a worker stops printing."""

    @staticmethod
    def _sleeper(script):
        import subprocess
        import sys

        return subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    @pytest.mark.parametrize(
        "script",
        [
            "import time; print('shard 0/1: start', flush=True); time.sleep(30)",
            "import time; time.sleep(30)",
        ],
        ids=["prints-then-sleeps", "silent"],
    )
    def test_drain_kills_a_silent_worker_at_the_deadline(self, script):
        import time

        from repro.shard.runner import _drain

        process = self._sleeper(script)
        lines = []
        started = time.monotonic()
        try:
            code = _drain(process, 0, lambda index, line: lines.append(line), 1.0)
        finally:
            process.kill()
            process.wait()
        assert time.monotonic() - started < 10.0
        assert code == -1
        assert process.returncode != 0
        if "print" in script:
            assert lines == ["shard 0/1: start"]

    def test_drain_returns_the_exit_code_within_the_deadline(self):
        from repro.shard.runner import _drain

        process = self._sleeper("import sys; print('done', flush=True); sys.exit(3)")
        assert _drain(process, 0, None, 30.0) == 3

    def test_timed_out_slice_is_reported_failed(self, tmp_path, monkeypatch):
        import time

        from repro.shard import runner

        spawned = []

        def fake_spawn(slice_path, out_prefix, **_kwargs):
            process = self._sleeper(
                "import time; print('shard: start', flush=True); time.sleep(30)"
            )
            spawned.append(process)
            return process

        monkeypatch.setattr(runner, "_spawn", fake_spawn)
        started = time.monotonic()
        try:
            result = runner.run_sharded(
                _sweep_plan(4), 8, n_shards=2, work_dir=tmp_path, timeout=1.0
            )
        finally:
            for process in spawned:
                process.kill()
                process.wait()
        assert time.monotonic() - started < 15.0
        assert result.failed == (0, 1)
        assert not result.ok and result.merged is None


def _seeded_plan(n_entries: int, seed_base: int) -> SimulationPlan:
    plan = SimulationPlan()
    for index in range(n_entries):
        plan.add(_BASE * (1.0 + index), seed=seed_base + index, label=f"entry-{index}")
    return plan


def _solo(plan: SimulationPlan, n_samples: int) -> BatchResult:
    from repro.engine import (
        CompiledPlanCache,
        DecompositionCache,
        DopplerFilterCache,
        SimulationEngine,
    )

    return SimulationEngine(
        cache=DecompositionCache(),
        filter_cache=DopplerFilterCache(),
        plan_cache=CompiledPlanCache(),
    ).run(plan, n_samples)


def _shared_matrix_plan(n_entries: int) -> SimulationPlan:
    """Entries over one covariance: equal-sized slices share a compiled plan."""
    plan = SimulationPlan()
    for index in range(n_entries):
        plan.add(_BASE, seed=300 + index, label=f"entry-{index}")
    return plan


def _assert_matches_solo(result, plan: SimulationPlan, n_samples: int) -> None:
    assert result.ok
    reference = _solo(plan, n_samples)
    assert result.merged.n_samples == n_samples
    assert len(result.merged.blocks) == len(reference.blocks)
    for got, want in zip(result.merged.blocks, reference.blocks):
        assert got.samples.shape == want.samples.shape
        assert got.samples.tobytes() == want.samples.tobytes()


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.mark.usefixtures("clean_env")
class TestRetryNeverReusesStaleOutputs:
    """A ``retry_failed`` run reuses an output only when its worker read
    exactly the slice payload this run writes."""

    def _killed_run(self, tmp_path, plan, n_samples):
        from repro.shard import run_sharded
        from repro.shard.worker import KILL_SLICE_ENV

        broken = run_sharded(
            plan,
            n_samples,
            n_shards=2,
            cache_dir=tmp_path / "cache",
            work_dir=tmp_path / "work",
            extra_env={KILL_SLICE_ENV: "1"},
        )
        assert broken.failed == (1,)
        return broken

    def _retry(self, tmp_path, plan, n_samples):
        from repro.shard import run_sharded

        lines = []
        retry = run_sharded(
            plan,
            n_samples,
            n_shards=2,
            cache_dir=tmp_path / "cache",
            work_dir=tmp_path / "work",
            retry_failed=True,
            progress=lambda index, line: lines.append(line),
        )
        return retry, lines

    def test_other_n_samples_recomputes(self, tmp_path):
        plan = _seeded_plan(4, 100)
        self._killed_run(tmp_path, plan, 96)
        retry, lines = self._retry(tmp_path, plan, 128)
        assert not [line for line in lines if "reused" in line]
        assert [block.samples.shape for block in retry.merged.blocks] == [(2, 128)] * 4
        _assert_matches_solo(retry, plan, 128)

    def test_other_seeds_recompute(self, tmp_path):
        self._killed_run(tmp_path, _seeded_plan(4, 100), 96)
        reseeded = _seeded_plan(4, 500)
        retry, lines = self._retry(tmp_path, reseeded, 96)
        assert not [line for line in lines if "reused" in line]
        _assert_matches_solo(retry, reseeded, 96)


class TestMalformedWorkerMeta:
    """A published meta that does not fit its slice reads as a failed
    slice, never an exception out of ``run_sharded``."""

    @staticmethod
    def _published(tmp_path):
        from repro.shard.worker import _write_outputs, run_slice

        (plan_slice, _) = partition_plan(_sweep_plan(4), 2)
        digest = hashlib.sha256(slice_to_payload(plan_slice, 16)).hexdigest()
        result, meta = run_slice(plan_slice, 16)
        meta["slice_sha256"] = digest
        prefix = tmp_path / "work" / "shard_0"
        _write_outputs(prefix, result, meta)
        return plan_slice, digest, prefix

    @staticmethod
    def _rewrite_meta(prefix, **changes):
        json_path = prefix.with_name(prefix.name + ".json")
        meta = json.loads(json_path.read_text(encoding="utf8"))
        meta.update(changes)
        json_path.write_text(json.dumps(meta), encoding="utf8")

    def test_published_output_loads(self, tmp_path):
        from repro.shard.runner import _load_output

        plan_slice, digest, prefix = self._published(tmp_path)
        loaded = _load_output(prefix, plan_slice, digest)
        assert loaded is not None
        assert [b.metadata["label"] for b in loaded[0].blocks] == ["entry-0", "entry-1"]
        assert _load_output(prefix, plan_slice, "0" * 64) is None

    @pytest.mark.parametrize(
        "labels", [["x"], "xy", ["a", "b", "c"], {"0": "a", "1": "b"}, 7]
    )
    def test_bad_labels_read_as_failed(self, tmp_path, labels):
        from repro.shard.runner import _load_output

        plan_slice, digest, prefix = self._published(tmp_path)
        self._rewrite_meta(prefix, labels=labels)
        assert _load_output(prefix, plan_slice, digest) is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_samples", float("inf")),
            ("compile_report", [1, 2]),
            ("crc32", -1),
            ("crc32", 1.5),
        ],
        ids=repr,
    )
    def test_bad_meta_fields_read_as_failed(self, tmp_path, field, value):
        from repro.shard.runner import _load_output

        plan_slice, digest, prefix = self._published(tmp_path)
        self._rewrite_meta(prefix, **{field: value})
        assert _load_output(prefix, plan_slice, digest) is None

    @pytest.mark.parametrize(
        "variances", [[1, 2], [1e400, 1.0], ["1.0", "2.0"], [True, 1.0], [1.0]], ids=repr
    )
    def test_bad_layout_variances_read_as_failed(self, tmp_path, variances):
        from repro.shard.runner import _load_output

        plan_slice, digest, prefix = self._published(tmp_path)
        json_path = prefix.with_name(prefix.name + ".json")
        meta = json.loads(json_path.read_text(encoding="utf8"))
        meta["layout"][0]["variances"] = variances
        # 1e400 is written as an integer literal, which float() overflows.
        text = json.dumps(meta).replace("Infinity", "1" + "0" * 400)
        json_path.write_text(text, encoding="utf8")
        assert _load_output(prefix, plan_slice, digest) is None

    def test_absent_labels_are_accepted(self, tmp_path):
        from repro.shard.runner import _load_output

        plan_slice, digest, prefix = self._published(tmp_path)
        json_path = prefix.with_name(prefix.name + ".json")
        meta = json.loads(json_path.read_text(encoding="utf8"))
        del meta["labels"]
        json_path.write_text(json.dumps(meta), encoding="utf8")
        loaded = _load_output(prefix, plan_slice, digest)
        assert loaded is not None
        assert [b.metadata["label"] for b in loaded[0].blocks] == [None, None]

    def test_retry_recomputes_a_slice_with_bad_labels(self, tmp_path, clean_env):
        from repro.shard import run_sharded

        _, _, prefix = self._published(tmp_path)
        self._rewrite_meta(prefix, labels=["x"])
        plan = _sweep_plan(4)
        lines = []
        result = run_sharded(
            plan,
            16,
            n_shards=2,
            work_dir=tmp_path / "work",
            retry_failed=True,
            progress=lambda index, line: lines.append(line),
        )
        assert not [line for line in lines if "reused" in line]
        _assert_matches_solo(result, plan, 16)


def _truncate(prefix):
    path = prefix.with_name(prefix.name + ".bin")
    path.write_bytes(path.read_bytes()[:-40])


def _flip_byte(prefix):
    path = prefix.with_name(prefix.name + ".bin")
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _append_bytes(prefix):
    path = prefix.with_name(prefix.name + ".bin")
    path.write_bytes(path.read_bytes() + bytes(16))


def _remove_bin(prefix):
    prefix.with_name(prefix.name + ".bin").unlink()


def _rewrite_layout(prefix, change):
    json_path = prefix.with_name(prefix.name + ".json")
    meta = json.loads(json_path.read_text(encoding="utf8"))
    change(meta)
    json_path.write_text(json.dumps(meta), encoding="utf8")


def _malformed_layout(prefix):
    _rewrite_layout(prefix, lambda meta: meta.update(layout=[{"shape": "2x16"}]))


def _oversized_shape(prefix):
    def change(meta):
        meta["layout"][0]["shape"][1] = 1 << 40

    _rewrite_layout(prefix, change)


_TEARS = {
    "truncated": _truncate,
    "flipped-byte": _flip_byte,
    "trailing-bytes": _append_bytes,
    "missing-bin": _remove_bin,
    "malformed-layout": _malformed_layout,
    "oversized-shape": _oversized_shape,
}


@pytest.mark.usefixtures("clean_env")
class TestTornOutputs:
    """A damaged ``.bin`` or layout reads as a failed slice, on the run that
    published it and under ``retry_failed``, and the retry recomputes just
    that slice bit-identically."""

    @pytest.mark.parametrize("tear", list(_TEARS.values()), ids=list(_TEARS))
    def test_torn_output_fails_its_slice_and_the_retry_recomputes_it(
        self, tmp_path, tear
    ):
        from repro.shard import run_sharded

        plan = _seeded_plan(4, 100)
        work = tmp_path / "work"

        def tear_when_published(index, line):
            # A worker prints "done" after its marker is published and
            # before the runner reads the output back.
            if index == 0 and ": done " in line:
                tear(work / "shard_0")

        first = run_sharded(
            plan, 96, n_shards=2, work_dir=work, progress=tear_when_published
        )
        assert first.failed == (0,)
        assert first.merged is None
        assert first.results[1] is not None

        # The torn files are still there: the retry must not reuse them.
        lines = []
        retry = run_sharded(
            plan,
            96,
            n_shards=2,
            work_dir=work,
            retry_failed=True,
            progress=lambda index, line: lines.append((index, line)),
        )
        assert [index for index, line in lines if "reused" in line] == [1]
        _assert_matches_solo(retry, plan, 96)

        # Torn again after a complete run: the next retry recomputes it too.
        tear(work / "shard_0")
        lines.clear()
        again = run_sharded(
            plan,
            96,
            n_shards=2,
            work_dir=work,
            retry_failed=True,
            progress=lambda index, line: lines.append((index, line)),
        )
        assert [index for index, line in lines if "reused" in line] == [1]
        _assert_matches_solo(again, plan, 96)

    def test_bad_layout_allocates_less_than_the_file(self, tmp_path):
        import tracemalloc

        from repro.shard.runner import _load_output
        from repro.shard.worker import _write_outputs, run_slice

        (plan_slice,) = partition_plan(_sweep_plan(2), 1)
        digest = hashlib.sha256(slice_to_payload(plan_slice, 4096)).hexdigest()
        result, meta = run_slice(plan_slice, 4096)
        meta["slice_sha256"] = digest
        prefix = tmp_path / "shard_0"
        _write_outputs(prefix, result, meta)
        file_size = prefix.with_name("shard_0.bin").stat().st_size
        assert file_size == 2 * 2 * 4096 * 16

        def peak_of_load():
            tracemalloc.start()
            try:
                loaded = _load_output(prefix, plan_slice, digest)
                return loaded, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loaded, peak = peak_of_load()
        assert loaded is not None
        assert peak >= file_size  # tracemalloc sees the sample array

        def declare_columns(columns):
            def change(meta):
                meta["layout"][1]["shape"][1] = columns

            return change

        changes = {
            "one-column-more": declare_columns(4097),
            "2**40-columns": declare_columns(1 << 40),
            "2**62-columns": declare_columns(1 << 62),
            "malformed": lambda meta: meta.update(layout=[{"shape": "2x4096"}] * 2),
            "crc-as-text": lambda meta: meta.update(crc32=str(meta["crc32"])),
        }
        for name, change in changes.items():
            _write_outputs(prefix, result, dict(meta))
            _rewrite_layout(prefix, change)
            loaded, peak = peak_of_load()
            assert loaded is None, name
            assert peak < file_size, name


@pytest.mark.usefixtures("clean_env")
class TestConcurrentWorkers:
    """Every worker starts and compiles at once, and the BLAS threads are
    split between workers."""

    def test_every_worker_spawns_while_the_others_run(self, tmp_path, monkeypatch):
        from repro.shard import runner

        spawned = []
        alive_at_spawn = []
        real_spawn = runner._spawn

        def recording_spawn(*args, **kwargs):
            alive_at_spawn.append([process.poll() is None for process in spawned])
            process = real_spawn(*args, **kwargs)
            spawned.append(process)
            return process

        monkeypatch.setattr(runner, "_spawn", recording_spawn)
        plan = _shared_matrix_plan(6)
        result = runner.run_sharded(
            plan, 32, n_shards=3, cache_dir=tmp_path / "cache", work_dir=tmp_path / "work"
        )
        assert len(spawned) == 3
        assert alive_at_spawn[1:] == [[True], [True, True]]
        _assert_matches_solo(result, plan, 32)

    def test_an_early_worker_death_leaves_the_rest_running(self, tmp_path, monkeypatch):
        import subprocess
        import sys

        from repro.shard import runner

        real_spawn = runner._spawn

        def spawn(slice_path, out_prefix, **kwargs):
            if slice_path.name == "slice_0.json":
                return subprocess.Popen(
                    [sys.executable, "-c", "import sys; sys.exit(3)"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
            return real_spawn(slice_path, out_prefix, **kwargs)

        monkeypatch.setattr(runner, "_spawn", spawn)
        lines = []
        result = runner.run_sharded(
            _sweep_plan(6),
            32,
            n_shards=3,
            work_dir=tmp_path / "work",
            timeout=60.0,
            progress=lambda index, line: lines.append((index, line)),
        )
        assert result.failed == (0,)
        assert result.results[1] is not None and result.results[2] is not None
        assert (0, "shard 0/3: FAILED (exit 3)") in lines

    @pytest.mark.parametrize(
        "cores, n_workers, expected", [(8, 3, "2"), (8, 2, "4"), (2, 16, "1"), (4, 1, "4")]
    )
    def test_blas_threads_split_between_workers(
        self, monkeypatch, cores, n_workers, expected
    ):
        import os

        from repro.shard.runner import _BLAS_THREAD_VARS, _worker_env

        for name in _BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        env = _worker_env(None, n_workers)
        assert {name: env[name] for name in _BLAS_THREAD_VARS} == dict.fromkeys(
            _BLAS_THREAD_VARS, expected
        )

    def test_blas_threads_fall_back_to_cpu_count(self, monkeypatch):
        import os

        from repro.shard.runner import _worker_env

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _worker_env(None, 2)["OPENBLAS_NUM_THREADS"] == "3"

    def test_caller_blas_settings_win(self, monkeypatch):
        import os

        from repro.shard.runner import _worker_env

        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "5")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        env = _worker_env({"MKL_NUM_THREADS": "7"}, 2)
        assert env["OMP_NUM_THREADS"] == "5"
        assert env["MKL_NUM_THREADS"] == "7"
        assert os.environ["OMP_NUM_THREADS"] == "5"


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not exited, not zombie) process."""
    import os

    try:
        with open(f"/proc/{pid}/stat", encoding="utf8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _gone_within(pid: int, seconds: float) -> bool:
    import time

    deadline = time.monotonic() + seconds
    while _alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


_needs_fork = pytest.mark.skipif(
    not _can_fork(),
    reason="workers fork from a launcher only where os.fork and socket.send_fds exist",
)


@_needs_fork
@pytest.mark.usefixtures("clean_env")
class TestForkedWorkerContract:
    """A worker forked from the launcher behaves like the ``Popen`` it
    replaces: exit codes, signals, ``poll``, the timeout kill."""

    def test_missing_slice_path_fails_with_exit_1(self, tmp_path, monkeypatch):
        from repro.shard import runner

        real_spawn = runner._spawn
        spawned = []

        def spawn(slice_path, out_prefix, **kwargs):
            spawned.append(real_spawn(tmp_path / "missing.json", out_prefix, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(runner, "_spawn", spawn)
        lines = []
        result = runner.run_sharded(
            _sweep_plan(2),
            8,
            n_shards=1,
            work_dir=tmp_path / "work",
            progress=lambda index, line: lines.append(line),
        )
        assert [type(process) for process in spawned] == [runner._ForkedWorker]
        assert result.failed == (0,)
        assert lines[-1] == "shard 0/1: FAILED (exit 1)"
        assert any("FileNotFoundError" in line for line in lines)

    def test_fifo_slice_is_killed_at_the_timeout(self, tmp_path):
        import os
        import time

        from repro.shard import runner

        fifo = tmp_path / "slice.fifo"
        os.mkfifo(fifo)
        process = runner._spawn(
            fifo,
            tmp_path / "shard_0",
            cache_dir=None,
            backend=None,
            env=runner._worker_env(None, 1),
        )
        assert isinstance(process, runner._ForkedWorker)
        # The child blocks opening a FIFO that nobody writes to.
        assert process.poll() is None
        started = time.monotonic()
        assert runner._drain(process, 0, None, 1.0) == -1
        assert time.monotonic() - started < 10.0
        assert process.returncode < 0
        assert process.poll() == process.returncode
        process.kill()  # after the reap: a no-op, never a stray signal
        assert process.wait() == process.returncode

    def test_children_share_no_random_state_through_fork(self, tmp_path):
        """Identical covariances with ``seed=None`` over 2 shards: each shard
        draws from its entry's seed (``None`` is the package default seed, so
        the blocks equal each other and the solo run), and the legacy global
        generators a hook in the child sees are not the launcher's copy."""
        from repro.shard import run_sharded

        hook = tmp_path / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(
            "import atexit, os, random\n"
            "def _draw():\n"
            "    import numpy\n"
            "    path = os.path.join(os.environ['DRAWS_DIR'], f'{os.getpid()}.txt')\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(f'{numpy.random.random()!r} {random.random()!r}')\n"
            "atexit.register(_draw)\n",
            encoding="utf8",
        )
        draws = tmp_path / "draws"
        draws.mkdir()
        plan = SimulationPlan()
        plan.add(_BASE, label="a")
        plan.add(_BASE, label="b")
        result = run_sharded(
            plan,
            64,
            n_shards=2,
            work_dir=tmp_path / "work",
            extra_env={"PYTHONPATH": str(hook), "DRAWS_DIR": str(draws)},
        )
        _assert_matches_solo(result, plan, 64)
        first, second = result.merged.blocks
        assert first.samples.tobytes() == second.samples.tobytes()
        numpy_draws, python_draws = zip(
            *(path.read_text(encoding="utf8").split() for path in draws.iterdir())
        )
        assert len(numpy_draws) == 2
        assert len(set(numpy_draws)) == 2
        assert len(set(python_draws)) == 2

    def test_unresponsive_launcher_fails_the_run_within_the_timeout(self, tmp_path):
        """A launcher that never answers (here: stuck importing ``site``) is
        killed at the workers' timeout, and every slice reads as failed."""
        import time

        from repro.shard import runner

        hook = tmp_path / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(
            "import time\ntime.sleep(600)\n", encoding="utf8"
        )
        lines = []
        started = time.monotonic()
        result = runner.run_sharded(
            _sweep_plan(4),
            16,
            n_shards=2,
            work_dir=tmp_path / "work",
            timeout=2.0,
            extra_env={"PYTHONPATH": str(hook)},
            progress=lambda index, line: lines.append(line),
        )
        assert time.monotonic() - started < 30.0
        assert result.failed == (0, 1)
        # The first timeout kills the launcher; a slice whose own timer has
        # not fired yet reads as SIGKILLed before it started.
        assert len(lines) == 2
        assert "shard 0/2: FAILED (exit -1)" in lines or "shard 1/2: FAILED (exit -1)" in lines
        assert all(line.endswith(("FAILED (exit -1)", "FAILED (exit -9)")) for line in lines)
        hung = runner._LAUNCHER
        assert hung.lost
        assert _gone_within(hung.process.pid, 10.0)
        # The next run starts a launcher that answers.
        _assert_matches_solo(
            runner.run_sharded(_sweep_plan(4), 16, n_shards=2, work_dir=tmp_path / "next"),
            _sweep_plan(4),
            16,
        )

    @pytest.mark.parametrize("start", ["fork", "no-fork"])
    def test_crash_and_retry(self, tmp_path, monkeypatch, start):
        import os
        import subprocess

        from repro.shard import runner
        from repro.shard.worker import KILL_SLICE_ENV

        if start == "no-fork":
            monkeypatch.delattr(os, "fork")
        expected = subprocess.Popen if start == "no-fork" else runner._ForkedWorker
        real_spawn = runner._spawn
        kinds = []

        def spawn(*args, **kwargs):
            process = real_spawn(*args, **kwargs)
            kinds.append(type(process))
            return process

        monkeypatch.setattr(runner, "_spawn", spawn)
        plan = _seeded_plan(6, 700)
        lines = []
        broken = runner.run_sharded(
            plan,
            48,
            n_shards=3,
            cache_dir=tmp_path / "cache",
            work_dir=tmp_path / "work",
            extra_env={KILL_SLICE_ENV: "1"},
            progress=lambda index, line: lines.append(line),
        )
        assert broken.failed == (1,)
        assert "shard 1/3: FAILED (exit -9)" in lines
        retry = runner.run_sharded(
            plan,
            48,
            n_shards=3,
            cache_dir=tmp_path / "cache",
            work_dir=tmp_path / "work",
            retry_failed=True,
        )
        _assert_matches_solo(retry, plan, 48)
        assert kinds == [expected] * 4


@_needs_fork
@pytest.mark.usefixtures("clean_env")
class TestLauncherLifetime:
    """No launcher outlives the process that started it, and a new worker
    environment replaces the launcher instead of adding one."""

    def test_launcher_dies_with_a_killed_parent(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import os, signal\n"
            "import numpy as np\n"
            "from repro.engine import SimulationPlan\n"
            "from repro.shard import run_sharded, runner\n"
            "plan = SimulationPlan()\n"
            "for index in range(4):\n"
            "    plan.add(np.eye(2) * (1 + index), seed=index)\n"
            f"assert run_sharded(plan, 16, n_shards=2, work_dir={str(tmp_path)!r}).ok\n"
            "print(runner._LAUNCHER.process.pid, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == -9, completed.stderr
        launcher_pid = int(completed.stdout.split()[-1])
        assert _gone_within(launcher_pid, 10.0)

    def test_another_worker_env_replaces_the_launcher(self, tmp_path):
        from repro.shard import run_sharded, runner

        plan = _sweep_plan(4)
        assert run_sharded(
            plan, 16, n_shards=2, work_dir=tmp_path / "a", extra_env={"REPRO_TEST_ENV": "a"}
        ).ok
        first = runner._LAUNCHER
        assert run_sharded(
            plan, 16, n_shards=2, work_dir=tmp_path / "b", extra_env={"REPRO_TEST_ENV": "a"}
        ).ok
        assert runner._LAUNCHER is first
        # Another shard count (here also another variable, so the worker
        # environment differs even where the BLAS split comes out equal).
        assert run_sharded(
            plan, 16, n_shards=3, work_dir=tmp_path / "c", extra_env={"REPRO_TEST_ENV": "b"}
        ).ok
        second = runner._LAUNCHER
        assert second is not first
        assert second.process.pid != first.process.pid
        assert _gone_within(first.process.pid, 10.0)
        assert _alive(second.process.pid)

    def test_concurrent_runs_with_different_envs_all_complete(self, tmp_path):
        """Two threads whose worker environments differ replace each other's
        launcher between runs; a replaced launcher still serves the workers
        it was asked for, so no slice fails."""
        import threading

        from repro.shard import run_sharded

        plan = _sweep_plan(4)
        results = {}

        def runs(name: str, n_shards: int) -> None:
            for attempt in range(3):
                results[name, attempt] = run_sharded(
                    plan,
                    16,
                    n_shards=n_shards,
                    work_dir=tmp_path / f"{name}{attempt}",
                    extra_env={"REPRO_TEST_ENV": name},
                )

        threads = [
            threading.Thread(target=runs, args=("a", 2)),
            threading.Thread(target=runs, args=("b", 3)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 6
        for result in results.values():
            _assert_matches_solo(result, plan, 16)
