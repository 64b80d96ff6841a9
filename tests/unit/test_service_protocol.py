"""Unit tests of the serving wire protocol (:mod:`repro.service.protocol`).

The protocol's whole promise is bit-exactness: a plan that crosses the wire
must hash to the same compiled-plan key and generate the same samples as the
in-process original, and a result that crosses the wire must decode to
arrays bit-identical to the in-process ``BatchResult``.  Every round-trip
test here asserts exact equality, never closeness.
"""

from __future__ import annotations

import base64
import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.api import Simulator
from repro.engine import DopplerSpec, SimulationPlan
from repro.engine.cache import DecompositionCache
from repro.engine.plancache import compiled_plan_cache_key
from repro.exceptions import SpecificationError
from repro.service import (
    PROTOCOL_VERSION,
    decode_array,
    encode_array,
    plan_from_payload,
    plan_to_payload,
    result_from_lines,
    result_to_lines,
)
from repro.service.protocol import BIT_GENERATORS, seed_from_payload, seed_to_payload
from repro.shard import partition_plan, slice_from_payload, slice_to_payload

BASE = np.array(
    [
        [1.0, 0.37 - 0.21j, 0.05],
        [0.37 + 0.21j, 1.8, 0.4j],
        [0.05, -0.4j, 1.2],
    ],
    dtype=complex,
)


#: ``plan_to_payload`` of the mixed plan below.  The second matrix's
#: ``c16`` text carries a ``-0.0``, a subnormal ``1e-310`` and ``1e+300``.
_PINNED_MIXED_PAYLOAD = (
    '{"client_id": "lab-7", "entries": [{"coloring_method": "eigen", '
    '"doppler": null, "epsilon": 1e-06, "fading": null, "label": "plain", '
    '"matrix": {"c16": "AAAAAAAA8D8AAAAAAAAAAJqZmZmZmdk/mpmZmZmZuT+amZmZmZnZP5qZmZmZmbm/'
    'AAAAAAAAAEAAAAAAAAAAAA==", "n": 2}, "psd_method": "clip", '
    '"sample_variance": 1.0, "seed": null}, '
    '{"coloring_method": "cholesky", "doppler": null, "epsilon": 1e-09, '
    '"fading": {"model": "rician", "shadowing_sigma_db": 0.0, "shape": 3.5}, '
    '"label": "rician", '
    '"matrix": {"c16": "MzMzMzMz0z8AAAAAAAAAAAAAAAAAAAAAK+Zwi2gSAAAAAAAAAAAAgCvmcItoEgCA'
    'nHUAiDzkN34AAAAAAAAAAA==", "n": 2}, "psd_method": "clip", '
    '"sample_variance": 0.5, "seed": 7}, {"coloring_method": "eigen", '
    '"doppler": {"compensate_variance": true, "input_variance_per_dim": 0.5, '
    '"n_points": 64, "normalized_doppler": 0.05}, "epsilon": 1e-06, '
    '"fading": {"model": "weibull", "shadowing_sigma_db": 2.0, '
    '"shape": 1.75}, "label": "shadowed-doppler", '
    '"matrix": {"c16": "VVVVVVVV1T8AAAAAAAAAABEREREREcE/ERERERERoT8RERERERHBPxEREREREaG/'
    'VVVVVVVV5T8AAAAAAAAAAA==", "n": 2}, "psd_method": "clip", '
    '"sample_variance": 1.0, "seed": 11}, {"coloring_method": "eigen", '
    '"doppler": null, "epsilon": 1e-06, "fading": null, "label": null, '
    '"matrix": {"c16": "AAAAAAAA8D8AAAAAAAAAAJqZmZmZmdk/mpmZmZmZuT+amZmZmZnZP5qZmZmZmbm/'
    'AAAAAAAAAEAAAAAAAAAAAA==", "n": 2}, "psd_method": "clip", '
    '"sample_variance": 1.0, '
    '"seed": {"kind": "generator", "state": {"bit_generator": "PCG64", '
    '"has_uint32": 0, '
    '"state": {"inc": 107381791681050441119675421997145146149, '
    '"state": 29299324949094424543410418505067287561}, "uinteger": 0}}}], '
    '"n_samples": 96, "version": 2}'
)


def _rich_plan():
    """A plan exercising every serialized field: Doppler, labels, repairs."""
    plan = SimulationPlan()
    plan.add(BASE, seed=101, label="plain")
    plan.add(
        2.5 * BASE,
        seed=202,
        coloring_method="cholesky",
        epsilon=1e-8,
        sample_variance=0.75,
        label="scaled",
    )
    plan.add(
        BASE,
        seed=303,
        doppler=DopplerSpec(normalized_doppler=0.05, n_points=2048),
        label="doppler",
    )
    return plan


class TestArrayCodec:
    def test_complex_round_trip_is_bit_exact(self, rng):
        array = rng.standard_normal((4, 33)) + 1j * rng.standard_normal((4, 33))
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == array.dtype
        assert np.array_equal(decoded, array)

    def test_non_contiguous_input_round_trips(self, rng):
        array = rng.standard_normal((8, 8)).T[::2]  # strided view
        decoded = decode_array(encode_array(array))
        assert np.array_equal(decoded, array)


class TestPlanPayload:
    def test_round_trip_preserves_every_field(self):
        plan = _rich_plan()
        payload = plan_to_payload(plan, 128, client_id="c1")
        # The payload must survive an actual JSON text round-trip.
        payload = json.loads(json.dumps(payload))
        decoded, n_samples = plan_from_payload(payload)
        assert n_samples == 128
        assert payload["client_id"] == "c1"
        assert decoded.n_entries == plan.n_entries
        for got, want in zip(decoded, plan):
            assert np.array_equal(got.spec.matrix, want.spec.matrix)
            assert got.seed == want.seed
            assert got.coloring_method == want.coloring_method
            assert got.psd_method == want.psd_method
            assert got.epsilon == want.epsilon
            assert got.sample_variance == want.sample_variance
            assert got.label == want.label
            if want.doppler is None:
                assert got.doppler is None
            else:
                assert got.doppler.normalized_doppler == want.doppler.normalized_doppler
                assert got.doppler.n_points == want.doppler.n_points

    def test_round_trip_preserves_compiled_plan_hash(self):
        """The decoded plan hashes to the same compiled-plan cache key."""
        plan = _rich_plan()
        payload = json.loads(json.dumps(plan_to_payload(plan, 64)))
        decoded, _ = plan_from_payload(payload)
        assert compiled_plan_cache_key(decoded) == compiled_plan_cache_key(plan)

    def test_round_trip_generates_identical_samples(self):
        plan = _rich_plan()
        payload = json.loads(json.dumps(plan_to_payload(plan, 64)))
        decoded, n_samples = plan_from_payload(payload)
        sim_a = Simulator(cache=DecompositionCache())
        sim_b = Simulator(cache=DecompositionCache())
        try:
            direct = sim_a.run(plan, n_samples)
            wired = sim_b.run(decoded, n_samples)
        finally:
            sim_a.close()
            sim_b.close()
        for got, want in zip(wired.blocks, direct.blocks):
            assert np.array_equal(got.samples, want.samples)

    def test_rejects_bad_version(self):
        payload = plan_to_payload(_rich_plan(), 64)
        payload["version"] = 99
        with pytest.raises(SpecificationError, match="version"):
            plan_from_payload(payload)

    def test_rejects_non_dict_and_missing_fields(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            plan_from_payload([1, 2, 3])
        with pytest.raises(SpecificationError, match="version"):
            plan_from_payload({})
        with pytest.raises(SpecificationError, match="malformed"):
            plan_from_payload({"version": PROTOCOL_VERSION})
        with pytest.raises(SpecificationError, match="non-empty"):
            plan_from_payload(
                {"version": PROTOCOL_VERSION, "n_samples": 8, "entries": []}
            )

    @pytest.mark.filterwarnings("error")
    def test_infinite_imaginary_part_keeps_its_real_part(self):
        # ``1 + inf·j`` sent as c16 bytes decodes to exactly those bytes,
        # with no numpy warning, and the plan refuses it.
        from repro.service.protocol import _matrix_from_c16

        sent = np.array([[complex(1.0, float("inf"))]])
        wire = {"n": 1, "c16": base64.b64encode(sent.astype("<c16").tobytes()).decode()}
        assert _matrix_from_c16(wire).tobytes() == sent.tobytes()
        payload = plan_to_payload(_rich_plan(), 64)
        payload["entries"][0]["matrix"] = wire
        with pytest.raises(SpecificationError, match="index 0"):
            plan_from_payload(payload)

    def test_rejects_malformed_entry_with_index(self):
        payload = plan_to_payload(_rich_plan(), 64)
        del payload["entries"][1]["matrix"]
        with pytest.raises(SpecificationError, match="index 1"):
            plan_from_payload(payload)

    def test_payload_round_trip_is_byte_identical(self):
        """Decode then re-encode reproduces the submitted JSON text exactly."""
        plan = _rich_plan()
        plan.add(
            BASE,
            seed=404,
            doppler=DopplerSpec(
                normalized_doppler=0.1,
                n_points=512,
                input_variance_per_dim=0.25,
                compensate_variance=False,
            ),
            label="doppler-custom",
        )
        text = json.dumps(plan_to_payload(plan, 64), sort_keys=True)
        decoded, n_samples = plan_from_payload(json.loads(text))
        assert json.dumps(plan_to_payload(decoded, n_samples), sort_keys=True) == text

    def test_mixed_plan_payload_text_is_pinned(self):
        """The HTTP plan payload is a published format, and the shard slice
        payload is built on it: this text must not move when either
        changes."""
        from repro.engine import FadingSpec

        base = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)
        plan = SimulationPlan()
        plan.add(base, seed=None, label="plain")
        plan.add(
            np.array([[0.3, -0.0 + 1e-310j], [-0.0 - 1e-310j, 1e300]]),
            seed=7,
            coloring_method="cholesky",
            epsilon=1e-9,
            sample_variance=0.5,
            fading=FadingSpec(model="rician", shape=3.5),
            label="rician",
        )
        plan.add(
            base / 3.0,
            seed=11,
            fading=FadingSpec(model="weibull", shape=1.75, shadowing_sigma_db=2.0),
            doppler=DopplerSpec(normalized_doppler=0.05, n_points=64),
            label="shadowed-doppler",
        )
        plan.add(base, seed=np.random.Generator(np.random.PCG64(1234)))
        text = json.dumps(plan_to_payload(plan, 96, client_id="lab-7"), sort_keys=True)
        assert text == _PINNED_MIXED_PAYLOAD

    def test_doppler_mapping_defaults_match_dopplerspec(self):
        payload = plan_to_payload(_rich_plan(), 64)
        payload["entries"][2]["doppler"] = {"normalized_doppler": 0.05}
        decoded, _ = plan_from_payload(payload)
        assert decoded[2].doppler == DopplerSpec(normalized_doppler=0.05)

    @pytest.mark.parametrize(
        "doppler",
        [
            {"n_points": 64},
            {"normalized_doppler": 0.05, "n_points": "many"},
            {"normalized_doppler": 0.05, "n_points": 64, "unknown": 1},
            {"normalized_doppler": 0.9, "n_points": 64},
            "fast",
            [0.05],
            {"normalized_doppler": 0.05, "n_points": float("inf")},
        ],
    )
    def test_malformed_doppler_is_a_specification_error(self, doppler):
        payload = plan_to_payload(_rich_plan(), 64)
        payload["entries"][2]["doppler"] = doppler
        with pytest.raises(SpecificationError, match="doppler"):
            plan_from_payload(payload)



class TestIntegerFields:
    """``n_samples`` and entry seeds must be JSON integers.

    JSON decodes ``1e400`` to infinity, which ``int()`` answers with an
    ``OverflowError``; ``1.5`` and ``true`` it would silently truncate to 1.
    """

    NOT_INTEGERS = [float("inf"), float("-inf"), 1.5, True, "8"]

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_n_samples_must_be_an_integer(self, value):
        payload = plan_to_payload(_rich_plan(), 64)
        payload["n_samples"] = value
        with pytest.raises(SpecificationError, match="n_samples must be an integer"):
            plan_from_payload(payload)

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_entry_seed_must_be_an_integer(self, value):
        payload = plan_to_payload(_rich_plan(), 64)
        payload["entries"][0]["seed"] = value
        with pytest.raises(SpecificationError, match="seed must be an integer"):
            plan_from_payload(payload)


def _global_rng_state():
    state = np.random.get_state()
    return (state[0], state[1].tobytes()) + tuple(state[2:])


def _payload_with_bit_generator(name):
    payload = plan_to_payload(_rich_plan(), 64)
    payload["entries"][0]["seed"] = {
        "kind": "generator",
        "state": {"bit_generator": name},
    }
    return payload


class TestSeedPayloadTrustBoundary:
    """Client-chosen bit-generator names never reach ``getattr(np.random)``."""

    HOSTILE = ["seed", "Generator", "default_rng", "RandomState", "__class__", 7, ["PCG64"]]

    @pytest.mark.parametrize("name", HOSTILE)
    def test_non_bit_generator_names_are_specification_errors(self, name):
        before = _global_rng_state()
        with pytest.raises(SpecificationError, match="bit generator"):
            seed_from_payload({"kind": "generator", "state": {"bit_generator": name}})
        with pytest.raises(SpecificationError):
            plan_from_payload(_payload_with_bit_generator(name))
        assert _global_rng_state() == before

    @pytest.mark.parametrize("family", sorted(BIT_GENERATORS))
    def test_every_whitelisted_family_round_trips(self, family):
        source = np.random.Generator(getattr(np.random, family)(17))
        source.standard_normal(5)
        restored = seed_from_payload(json.loads(json.dumps(seed_to_payload(source))))
        assert restored.standard_normal(8).tobytes() == source.standard_normal(8).tobytes()

    def test_out_of_range_state_is_a_specification_error(self):
        state = {
            "bit_generator": "PCG64",
            "state": {"state": -1, "inc": 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
        with pytest.raises(SpecificationError, match="malformed generator state"):
            seed_from_payload({"kind": "generator", "state": state})

    def test_short_mt19937_key_is_a_specification_error(self):
        # numpy indexes all 624 key words, so a shorter key raises its
        # IndexError unless the decoder refuses it.
        short = {"bit_generator": "MT19937", "state": {"key": [1] * 10, "pos": 0}}
        seed = {"kind": "generator", "state": short}
        with pytest.raises(SpecificationError, match="malformed generator state"):
            seed_from_payload(seed)
        payload = plan_to_payload(_rich_plan(), 64)
        payload["entries"][0]["seed"] = seed
        with pytest.raises(SpecificationError):
            plan_from_payload(payload)
        sliced = json.loads(slice_to_payload(partition_plan(_rich_plan(), 1)[0], 64))
        sliced["entries"][0]["seed"] = seed
        with pytest.raises(SpecificationError):
            slice_from_payload(json.dumps(sliced).encode())


class TestResultStream:
    def _result(self):
        plan = _rich_plan()
        sim = Simulator(cache=DecompositionCache())
        try:
            return sim.run(plan, 48)
        finally:
            sim.close()

    def test_round_trip_is_bit_identical(self):
        result = self._result()
        lines = list(result_to_lines(result))
        decoded = result_from_lines(iter(lines))
        assert decoded["header"]["n_entries"] == len(result.blocks)
        assert "backend" not in decoded["header"]
        assert decoded["header"]["compile_report"]["n_entries"] == 3
        assert decoded["labels"] == ["plain", "scaled", "doppler"]
        assert len(decoded["blocks"]) == len(result.blocks)
        for got, want in zip(decoded["blocks"], result.blocks):
            assert np.array_equal(got, want.samples)

    def test_truncated_stream_rejected(self):
        lines = list(result_to_lines(self._result()))
        with pytest.raises(SpecificationError, match="truncated"):
            result_from_lines(iter(lines[:-1]))  # no terminator
        with pytest.raises(SpecificationError, match="truncated"):
            result_from_lines(iter([lines[0], lines[-1]]))  # blocks missing

    def test_out_of_order_and_unknown_records_rejected(self):
        lines = list(result_to_lines(self._result()))
        with pytest.raises(SpecificationError, match="block before header"):
            result_from_lines(iter(lines[1:]))
        with pytest.raises(SpecificationError, match="unknown record"):
            result_from_lines(iter([json.dumps({"type": "surprise"})]))
        with pytest.raises(SpecificationError, match="malformed result line"):
            result_from_lines(iter(["{not json"]))


def _saved_array(array):
    """The array encoding before the cached-header path: ``np.save`` + base64."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def _dumped_lines(result):
    """The result lines before direct formatting: ``json.dumps`` of ``asdict``."""
    yield json.dumps(
        {
            "type": "result",
            "version": PROTOCOL_VERSION,
            "n_entries": len(result.blocks),
            "n_samples": int(result.n_samples),
            "execute_seconds": float(result.execute_seconds),
            "compile_report": asdict(result.compile_report),
        }
    )
    for index, block in enumerate(result.blocks):
        yield json.dumps(
            {
                "type": "block",
                "index": index,
                "plan_index": block.metadata.get("plan_index", index),
                "label": block.metadata.get("label"),
                "npy": _saved_array(block.samples),
            }
        )
    yield json.dumps({"type": "end", "n_blocks": len(result.blocks)})


class TestWireFormatPinned:
    """The encode path is faster, but its text is the old construction's."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 256), (32, 2048)])
    def test_result_lines_equal_the_old_construction(self, shape):
        n_branches, n_samples = shape
        plan = SimulationPlan()
        for offset, label in enumerate((None, "ascii-label", "ñ-δ-東京")):
            matrix = np.eye(n_branches, dtype=complex) * (1.0 + offset)
            plan.add(matrix, seed=offset + 1, label=label)
        sim = Simulator(cache=DecompositionCache())
        try:
            result = sim.run(plan, n_samples)
        finally:
            sim.close()
        assert result.blocks[0].samples.shape == shape
        got = list(result_to_lines(result))
        want = list(_dumped_lines(result))
        assert len(got) == len(want) == 5
        for got_line, want_line in zip(got, want):
            assert got_line == want_line

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(6, dtype=float).reshape(2, 3),
            np.arange(6, dtype=">i4").reshape(3, 2),
            np.asfortranarray(np.arange(12, dtype=complex).reshape(3, 4)),
            (np.arange(20, dtype=complex) * 1j).reshape(4, 5)[:, ::2],
            np.array(3.5),
            np.zeros((0, 4), dtype=np.complex64),
            np.array([(1, 2.0)], dtype=[("a", "i4"), ("b", "f8")]),
        ],
        ids=["float", "big-endian", "fortran", "strided", "0-d", "empty", "structured"],
    )
    def test_encode_array_equals_np_save(self, array):
        assert encode_array(array) == _saved_array(array)
        assert decode_array(encode_array(array)).tobytes() == np.ascontiguousarray(
            array
        ).tobytes()


class TestFadingOnTheWire:
    """Fading specs must cross the wire bit-exactly (invariant 6).

    Anything lossy here is silently catastrophic: a spec that decodes to a
    different float would hash to a different compiled-plan key (cache
    misses), or — worse — to the *same* key as a genuinely different spec
    (coalescing two requests whose results differ).
    """

    def _faded_plan(self):
        plan = SimulationPlan()
        plan.add(BASE, seed=11, fading={"model": "rician", "shape": 4.0})
        # A shortest-repr-hostile shape: 0.1 has no exact binary expansion.
        plan.add(BASE, seed=12, fading={"model": "nakagami", "shape": 0.6 + 0.1})
        plan.add(
            BASE,
            seed=13,
            doppler=DopplerSpec(normalized_doppler=0.05, n_points=64),
            fading={"model": "weibull", "shape": 1.7, "shadowing_sigma_db": 5.5},
        )
        plan.add(BASE, seed=14)  # fading=None round-trips as null
        return plan

    def test_round_trip_preserves_fading_specs(self):
        plan = self._faded_plan()
        payload = json.loads(json.dumps(plan_to_payload(plan, 32)))
        decoded, _ = plan_from_payload(payload)
        for got, want in zip(decoded, plan):
            assert got.fading == want.fading  # dataclass equality: exact floats

    def test_round_trip_preserves_compiled_plan_hash(self):
        plan = self._faded_plan()
        payload = json.loads(json.dumps(plan_to_payload(plan, 32)))
        decoded, _ = plan_from_payload(payload)
        assert compiled_plan_cache_key(decoded) == compiled_plan_cache_key(plan)

    def test_round_trip_generates_identical_samples(self):
        plan = self._faded_plan()
        payload = json.loads(json.dumps(plan_to_payload(plan, 48)))
        decoded, n_samples = plan_from_payload(payload)
        sim_a = Simulator(cache=DecompositionCache())
        sim_b = Simulator(cache=DecompositionCache())
        try:
            direct = sim_a.run(plan, n_samples)
            wired = sim_b.run(decoded, n_samples)
        finally:
            sim_a.close()
            sim_b.close()
        for got, want in zip(wired.blocks, direct.blocks):
            assert np.array_equal(got.samples, want.samples)

    def test_malformed_fading_names_field_and_entry(self):
        payload = plan_to_payload(self._faded_plan(), 32)
        payload["entries"][1]["fading"] = {"model": "nakagami"}  # missing shape
        with pytest.raises(SpecificationError, match="fading.shape"):
            plan_from_payload(payload)
        payload["entries"][1]["fading"] = {"model": "rice", "shape": 2.0}
        with pytest.raises(SpecificationError, match="fading.model"):
            plan_from_payload(payload)

    def test_same_plan_different_models_never_coalesce(self):
        """The service request key must split on every fading difference."""
        from repro.service import request_key

        def key(fading):
            plan = SimulationPlan()
            plan.add(BASE, seed=21, fading=fading)
            return request_key(plan, 64)

        keys = {
            key(None),
            key({"model": "rician", "shape": 2.0}),
            key({"model": "rician", "shape": 3.0}),
            key({"model": "nakagami", "shape": 2.0}),
            key({"model": "weibull", "shape": 2.0}),
            key({"model": "rayleigh", "shadowing_sigma_db": 4.0}),
        }
        assert None not in keys  # integer seeds: all requests are keyable
        assert len(keys) == 6

    def test_identical_faded_requests_still_coalesce(self):
        from repro.service import request_key

        def key():
            plan = SimulationPlan()
            plan.add(BASE, seed=21, fading={"model": "rician", "shape": 2.0})
            return request_key(plan, 64)

        assert key() == key()
