"""Fuzz the wire decoders: any input is decoded or refused with a ReproError.

``plan_from_payload`` decodes untrusted HTTP submissions and
``slice_from_payload`` the shard slice files, through ``plan_from_payload``
and its one ``c16`` matrix decoder; a crash of either other than
:class:`~repro.exceptions.ReproError` would answer 500 or kill a worker
with a traceback.  ``seed_from_payload``, which both reach for every
entry's seed, is fuzzed on its own as well.  Each target gets arbitrary
JSON values and one-field mutations of a valid payload (a field replaced by
an arbitrary value, or removed).  The leaves include integers past the
float range, which JSON carries but ``float()`` refuses.

The shard result reader ``_read_sample_record`` is fuzzed too: it trusts
neither the marker's ``layout`` and ``crc32`` nor the ``.bin`` file, so a
torn slice reads as ``None`` and is recomputed, never a crash.

So is the HTTP request reader ``ServiceHTTPServer._read_request``, on
arbitrary bytes and one-field mutations of a valid request: it returns a
parsed request or ``None``, or refuses with a 4xx, since anything else is
answered 500.
"""

from __future__ import annotations

import asyncio
import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Simulator
from repro.engine import DopplerSpec, FadingSpec, SimulationPlan
from repro.exceptions import ReproError, SpecificationError
from repro.service.http import MAX_BODY_BYTES, ServiceHTTPServer, _RequestError
from repro.service.protocol import (
    BIT_GENERATORS,
    plan_from_payload,
    plan_to_payload,
    seed_from_payload,
    seed_to_payload,
)
from repro.shard import partition_plan, slice_from_payload, slice_to_payload
from repro.shard.slicing import _read_sample_record, _sample_record

BUDGET = settings(max_examples=200, deadline=None, derandomize=True)

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=8),
)
_JSON = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_REMOVED = object()


def _valid_plan() -> SimulationPlan:
    base = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.5]])
    plan = SimulationPlan()
    plan.add(base, seed=3, label="plain")
    plan.add(
        base,
        seed=np.random.Generator(np.random.PCG64(5)),
        doppler=DopplerSpec(normalized_doppler=0.05, n_points=64),
        fading=FadingSpec(model="rician", shape=2.0, shadowing_sigma_db=1.0),
        label="doppler-rician",
    )
    return plan


def _field_paths(value, path=(), max_items=None):
    """Every path to a field of a JSON object tree (list items included).

    ``max_items`` keeps only the first items of each list, so a long list
    (an MT19937 key has 624 words) does not crowd out the other fields.
    """
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value[:max_items])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,), max_items)


def _mutated(valid, max_items=None):
    """Strategy: ``valid`` with one field replaced by JSON or removed."""
    paths = sorted(_field_paths(valid, max_items=max_items), key=repr)

    @st.composite
    def mutate(draw):
        payload = json.loads(json.dumps(valid))
        *parents, last = draw(st.sampled_from(paths))
        owner = payload
        for key in parents:
            owner = owner[key]
        replacement = draw(st.one_of(_LEAVES, _JSON, st.just(_REMOVED)))
        if replacement is _REMOVED:
            del owner[last]
        else:
            owner[last] = replacement
        return payload

    return mutate()


_PLAN_PAYLOAD = json.loads(json.dumps(plan_to_payload(_valid_plan(), 16)))
_SLICE_PAYLOAD = json.loads(slice_to_payload(partition_plan(_valid_plan(), 1)[0], 16))


def _decodes_or_refuses(decode, value) -> None:
    try:
        decode(value)
    except ReproError:
        pass


class TestPlanFromPayload:
    def test_the_valid_payload_decodes(self):
        plan, n_samples = plan_from_payload(_PLAN_PAYLOAD)
        assert (len(plan), n_samples) == (2, 16)

    @BUDGET
    @given(value=_JSON)
    def test_arbitrary_json(self, value):
        _decodes_or_refuses(plan_from_payload, value)

    @BUDGET
    @given(payload=_mutated(_PLAN_PAYLOAD))
    def test_one_field_mutations(self, payload):
        _decodes_or_refuses(plan_from_payload, payload)


class TestSliceFromPayload:
    def test_the_valid_payload_decodes(self):
        plan_slice, n_samples = slice_from_payload(json.dumps(_SLICE_PAYLOAD).encode())
        assert (plan_slice.n_entries, n_samples) == (2, 16)

    @BUDGET
    @given(data=st.binary(max_size=64) | _JSON.map(lambda v: json.dumps(v).encode()))
    def test_arbitrary_bytes_and_json(self, data):
        _decodes_or_refuses(slice_from_payload, data)

    @BUDGET
    @given(payload=_mutated(_SLICE_PAYLOAD))
    def test_one_field_mutations(self, payload):
        _decodes_or_refuses(slice_from_payload, json.dumps(payload).encode())


#: A valid seed payload per whitelisted bit generator, as JSON carries it.
_SEED_PAYLOADS = {
    name: json.loads(
        json.dumps(seed_to_payload(np.random.Generator(getattr(np.random, name)(7))))
    )
    for name in sorted(BIT_GENERATORS)
}


def _seed_decodes_or_refuses(value) -> None:
    """A seed payload decodes to ``None``, an int or a Generator, or is refused."""
    try:
        seed = seed_from_payload(value)
    except SpecificationError:
        return
    assert seed is None or isinstance(seed, (int, np.random.Generator))


class TestSeedFromPayload:
    @BUDGET
    @given(value=_JSON)
    def test_arbitrary_json(self, value):
        _seed_decodes_or_refuses(value)

    @pytest.mark.parametrize("name", sorted(BIT_GENERATORS))
    @settings(max_examples=40, deadline=None, derandomize=True)  # 200 in all
    @given(data=st.data())
    def test_one_field_mutations(self, name, data):
        payload = data.draw(_mutated(_SEED_PAYLOADS[name], max_items=2))
        _seed_decodes_or_refuses(payload)


#: Every numeric field of a wire entry, as a path into the entry dict.
_NUMERIC_FIELDS = [
    ("epsilon",),
    ("sample_variance",),
    ("seed",),
    ("doppler", "normalized_doppler"),
    ("doppler", "input_variance_per_dim"),
    ("doppler", "n_points"),
    ("fading", "shape"),
    ("fading", "shadowing_sigma_db"),
]
#: What JSON carries but no field may hold: an integer past the float
#: range, and the ``Infinity``/``NaN`` literals Python's json accepts.
_UNREPRESENTABLE = {"over-range": 10**400, "Infinity": float("inf"), "NaN": float("nan")}


def _numeric_cases(fields):
    for path in fields:
        for value_name, value in _UNREPRESENTABLE.items():
            # Python ints of any size are valid numpy seeds.
            if path != ("seed",) or value_name != "over-range":
                yield pytest.param(path, value, id=f"{'.'.join(map(str, path))}-{value_name}")


def _decode_slice_object(payload):
    return slice_from_payload(json.dumps(payload).encode())


def _refused(decode, payload, path, value) -> str:
    """Set ``path`` of entry 1 to ``value``; return the refusal's message."""
    payload = json.loads(json.dumps(payload))
    *parents, last = path
    owner = payload["entries"][1]
    for key in parents:
        owner = owner[key]
    owner[last] = value
    with pytest.raises(SpecificationError) as refused:
        decode(payload)
    return str(refused.value)


def _c16_text(n_bytes: int) -> str:
    return base64.b64encode(bytes(n_bytes)).decode("ascii")


#: Matrix objects the ``c16`` codec must refuse, as entry 1's matrix.
_MALFORMED_MATRICES = {
    "n-zero": {"n": 0, "c16": ""},
    "n-true": {"n": True, "c16": _c16_text(16)},
    "n-float": {"n": 2.0, "c16": _c16_text(64)},
    "n-huge-short-text": {"n": 10**9, "c16": _c16_text(64)},
    "not-base64": {"n": 2, "c16": "!" * len(_c16_text(64))},
    "wrong-length": {"n": 2, "c16": _c16_text(48)},
    "not-an-object": _c16_text(64),
}


class TestNumericFieldsRefuseUnrepresentableValues:
    """Both decoders refuse, not only survive, what no field can hold.

    The fuzz targets above accept a decode as well as a refusal; these
    cases pin that the value is refused, and that the refusal names the
    entry.
    """

    @pytest.mark.parametrize("path, value", _numeric_cases(_NUMERIC_FIELDS))
    def test_plan_payload(self, path, value):
        message = _refused(plan_from_payload, _PLAN_PAYLOAD, path, value)
        assert "index 1" in message

    @pytest.mark.parametrize("path, value", _numeric_cases(_NUMERIC_FIELDS))
    def test_slice_payload(self, path, value):
        message = _refused(_decode_slice_object, _SLICE_PAYLOAD, path, value)
        assert "index 1" in message

    @pytest.mark.parametrize(
        "decode, payload",
        [(plan_from_payload, _PLAN_PAYLOAD), (_decode_slice_object, _SLICE_PAYLOAD)],
        ids=["plan", "slice"],
    )
    @pytest.mark.parametrize(
        "matrix", list(_MALFORMED_MATRICES.values()), ids=list(_MALFORMED_MATRICES)
    )
    def test_malformed_matrix(self, decode, payload, matrix):
        message = _refused(decode, payload, ("matrix",), matrix)
        assert "index 1" in message and "matrix" in message


#: A valid shard result record: the sample arrays, the ``.bin`` bytes a
#: worker writes, and the marker fields describing them.
_RECORD_PLAN = SimulationPlan.from_specs(
    [np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex), np.eye(3, dtype=complex)], seed=3
)
_RECORD_SAMPLES, _RECORD_MARKER = _sample_record(Simulator().run(_RECORD_PLAN, 16).blocks)
_RECORD_BYTES = b"".join(samples.tobytes() for samples in _RECORD_SAMPLES)
_RECORD_MARKER = json.loads(json.dumps(_RECORD_MARKER))


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


def _read_record(directory, data: bytes, layout, crc32):
    """Read ``data`` as a ``.bin`` under the marker fields; check the property.

    The reader returns ``None`` or blocks holding exactly the bytes written,
    and raises nothing but :class:`OSError`.
    """
    path = directory / "shard_0.bin"
    path.write_bytes(data)
    try:
        blocks = _read_sample_record(path, layout, crc32, len(_RECORD_SAMPLES))
    except OSError:
        return None
    if blocks is not None:
        assert b"".join(samples.tobytes() for samples, _ in blocks) == data
    return blocks


@st.composite
def _damaged(draw):
    """The valid record truncated, extended, or with one byte flipped."""
    size = len(_RECORD_BYTES)
    how = draw(st.sampled_from(["truncated", "extended", "flipped"]))
    if how == "truncated":
        return _RECORD_BYTES[: draw(st.integers(0, size - 1))]
    if how == "extended":
        return _RECORD_BYTES + draw(st.binary(min_size=1, max_size=32))
    data = bytearray(_RECORD_BYTES)
    data[draw(st.integers(0, size - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


class TestReadSampleRecord:
    def test_the_valid_record_reads_back(self, record_dir):
        blocks = _read_record(
            record_dir, _RECORD_BYTES, _RECORD_MARKER["layout"], _RECORD_MARKER["crc32"]
        )
        assert blocks is not None
        for (samples, variances), written, item in zip(
            blocks, _RECORD_SAMPLES, _RECORD_MARKER["layout"]
        ):
            assert samples.tobytes() == written.tobytes()
            assert variances.tolist() == item["variances"]

    @BUDGET
    @given(layout=_JSON, crc32=_JSON | st.just(_RECORD_MARKER["crc32"]))
    def test_arbitrary_marker_fields(self, record_dir, layout, crc32):
        _read_record(record_dir, _RECORD_BYTES, layout, crc32)

    @BUDGET
    @given(marker=_mutated(_RECORD_MARKER))
    def test_one_field_mutations_of_the_marker(self, record_dir, marker):
        _read_record(record_dir, _RECORD_BYTES, marker.get("layout"), marker.get("crc32"))

    @BUDGET
    @given(data=_damaged())
    def test_damaged_file_reads_as_none(self, record_dir, data):
        assert (
            _read_record(
                record_dir, data, _RECORD_MARKER["layout"], _RECORD_MARKER["crc32"]
            )
            is None
        )


_REQUEST_BODY = json.dumps(_PLAN_PAYLOAD).encode("utf8")
_REQUEST_LINE = b"POST /v1/plans HTTP/1.1"
_REQUEST_HEADERS = [b"Host: localhost", b"Content-Length: %d" % len(_REQUEST_BODY)]
#: ``Content-Length`` values that are not a plain count, or are too large.
_CONTENT_LENGTHS = st.sampled_from(
    ["-5", "+5", "1_0", "\u0661\u0660", "\uff11\uff10", " ", "",
     str(MAX_BODY_BYTES + 1), "9" * 5000]
) | st.text(max_size=8)
_LINES = st.binary(max_size=64) | st.text(max_size=64).map(lambda text: text.encode("utf8"))


def _request_bytes(request_line: bytes, headers, body: bytes) -> bytes:
    return b"\r\n".join([request_line, *headers, b""]) + b"\r\n" + body


@st.composite
def _mutated_request(draw):
    """The valid request with its request line, a header line, the
    ``Content-Length`` value or the body changed."""
    request_line, headers, body = _REQUEST_LINE, list(_REQUEST_HEADERS), _REQUEST_BODY
    field = draw(st.sampled_from(["request line", "header", "content-length", "body"]))
    if field == "request line":
        request_line = draw(_LINES | st.just(b"GET /" + b"a" * 70_000 + b" HTTP/1.1"))
    elif field == "header":
        index = draw(st.integers(0, len(headers) - 1))
        how = draw(st.sampled_from(["replace", "insert", "remove"]))
        if how == "remove":
            del headers[index]
        else:
            headers[index : index + (how == "replace")] = [draw(_LINES)]
    elif field == "content-length":
        headers[1] = b"Content-Length: " + draw(_CONTENT_LENGTHS).encode("utf8")
    elif draw(st.booleans()):
        body = body[: draw(st.integers(0, len(body) - 1))]
    else:
        body += draw(st.binary(min_size=1, max_size=16))
    return _request_bytes(request_line, headers, body)


def _parse(data: bytes):
    """Feed ``data`` then EOF to the request reader; return what it returns."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        # The reader uses no service.
        return await ServiceHTTPServer(service=None)._read_request(reader)

    return asyncio.run(read())


def _parses_or_refuses(data: bytes) -> None:
    """The reader returns a parsed request or ``None``, or refuses with a 4xx."""
    try:
        parsed = _parse(data)
    except _RequestError as exc:
        assert 400 <= exc.status < 500, exc
        return
    if parsed is not None:
        method, path, headers, body = parsed
        assert isinstance(method, str) and isinstance(path, str)
        assert isinstance(headers, dict) and isinstance(body, bytes)


class TestReadRequest:
    def test_the_valid_request_parses(self):
        method, path, headers, body = _parse(
            _request_bytes(_REQUEST_LINE, _REQUEST_HEADERS, _REQUEST_BODY)
        )
        assert (method, path, body) == ("POST", "/v1/plans", _REQUEST_BODY)
        assert headers["content-length"] == str(len(_REQUEST_BODY))

    @BUDGET
    @given(data=st.binary(max_size=256))
    def test_arbitrary_bytes(self, data):
        _parses_or_refuses(data)

    @BUDGET
    @given(data=_mutated_request())
    def test_one_field_mutations(self, data):
        _parses_or_refuses(data)
