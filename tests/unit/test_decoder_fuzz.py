"""Fuzz the wire decoders: any input is decoded or refused with a ReproError.

``plan_from_payload`` decodes untrusted HTTP submissions and
``slice_from_payload`` the shard slice files; a crash of either other than
:class:`~repro.exceptions.ReproError` would answer 500 or kill a worker
with a traceback.  ``seed_from_payload``, which both reach for every
entry's seed, is fuzzed on its own as well.  Each target gets arbitrary
JSON values and one-field mutations of a valid payload (a field replaced by
an arbitrary value, or removed).  The leaves include integers past the
float range, which JSON carries but ``float()`` refuses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DopplerSpec, FadingSpec, SimulationPlan
from repro.exceptions import ReproError, SpecificationError
from repro.service.protocol import (
    BIT_GENERATORS,
    plan_from_payload,
    plan_to_payload,
    seed_from_payload,
    seed_to_payload,
)
from repro.shard import partition_plan, slice_from_payload, slice_to_payload

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


class TestNumericFieldsRefuseUnrepresentableValues:
    """Both decoders refuse, not only survive, what no field can hold.

    The fuzz targets above accept a decode as well as a refusal; these
    cases pin that the value is refused, and that the refusal points at
    the entry or the field.
    """

    @pytest.mark.parametrize("path, value", _numeric_cases(_NUMERIC_FIELDS))
    def test_plan_payload(self, path, value):
        message = _refused(plan_from_payload, _PLAN_PAYLOAD, path, value)
        assert "index 1" in message or path[0] in message

    @pytest.mark.parametrize(
        "path, value", _numeric_cases([("matrix", "re", 0, 1), ("matrix", "im", 1, 0)])
    )
    def test_plan_payload_matrix(self, path, value):
        _refused(plan_from_payload, _PLAN_PAYLOAD, path, value)

    @pytest.mark.parametrize("path, value", _numeric_cases(_NUMERIC_FIELDS))
    def test_slice_payload(self, path, value):
        message = _refused(_decode_slice_object, _SLICE_PAYLOAD, path, value)
        assert "index 1" in message or path[0] in message
