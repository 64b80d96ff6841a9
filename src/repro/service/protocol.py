"""The JSON wire protocol of the serving layer: plans in, envelopes out.

Plans travel as JSON, every covariance matrix as ``{"n": N, "c16": ...}``:
the base64 of its ``16·N²`` little-endian ``complex128`` bytes, which
decodes with one :func:`numpy.frombuffer` instead of parsing ``2·N²`` float
reprs.  The other doubles travel as JSON numbers, whose shortest repr
parses back to the same IEEE-754 double.  Both round-trip **bit-exactly**,
so a decoded plan hashes to the same compiled-plan key and produces the
same samples as the in-process original.  Results stream as NDJSON: one
header line (sample count, the full :class:`CompileReport`), one
line per entry carrying its complex sample block as a base64 ``.npy``
payload (exact bytes, no text round-trip), and one terminator line — a
shape the HTTP front end maps 1:1 onto chunked transfer encoding.

Seeds travel losslessly too: ``None`` and integers as themselves, and live
:class:`numpy.random.Generator` seeds as their bit-generator state, which
restores to a generator drawing the identical stream.  The sharding layer
(:mod:`repro.shard`) builds its :class:`~repro.shard.PlanSlice` payloads on
:func:`plan_to_payload` and :func:`plan_from_payload`, so a slice file and
an HTTP submission share one encoding.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import io
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..engine import DopplerSpec, FadingSpec, SimulationPlan
from ..engine.compile import CompileReport
from ..engine.plan import coerce_doppler
from ..engine.result import BatchResult
from ..exceptions import SpecificationError
from ..models.fading import coerce_fading

__all__ = [
    "PROTOCOL_VERSION",
    "plan_to_payload",
    "plan_from_payload",
    "seed_to_payload",
    "seed_from_payload",
    "int_from_payload",
    "encode_array",
    "decode_array",
    "result_to_lines",
    "result_from_lines",
]

#: Version stamped on every payload; decoding rejects unknown versions.
PROTOCOL_VERSION = 2

#: The numpy bit generators a seed payload may name.
BIT_GENERATORS = frozenset({"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"})


#: Field names of :class:`CompileReport`, in declaration order (all scalars).
_REPORT_FIELDS = tuple(field.name for field in dataclasses.fields(CompileReport))


@functools.lru_cache(maxsize=64)
def _npy_header(dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """The ``.npy`` header ``np.save`` writes for a C-ordered array."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer,
        {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False,
            "shape": shape,
        },
    )
    return buffer.getvalue()


def encode_array(array: np.ndarray) -> str:
    """Base64 ``.npy`` serialization of one array (exact bytes).

    The bytes are those ``np.save`` writes: for a plain (non-object,
    non-structured) dtype the header comes from a per-``(dtype, shape)``
    cache and the samples from one ``tobytes()``, with no file object in
    between.
    """
    array = np.ascontiguousarray(array)
    dtype = array.dtype
    if dtype.hasobject or dtype.fields is not None:
        buffer = io.BytesIO()
        np.save(buffer, array, allow_pickle=False)
        return base64.b64encode(buffer.getvalue()).decode("ascii")
    header = _npy_header(dtype, array.shape)
    return base64.b64encode(header + array.tobytes()).decode("ascii")


def decode_array(encoded: str) -> np.ndarray:
    """Inverse of :func:`encode_array` — bit-identical round-trip."""
    buffer = io.BytesIO(base64.b64decode(encoded.encode("ascii")))
    return np.load(buffer, allow_pickle=False)


def _jsonable(value: Any) -> Any:
    """Recursively convert a bit-generator state dict to pure JSON types.

    Generator states are dicts of strings and (arbitrary-precision) ints
    for the PCG64/Philox/SFC64 families; MT19937 carries its key as a
    uint32 ndarray, which JSON round-trips as a list of ints — the state
    setters of every numpy bit generator accept sequences back.
    """
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def int_from_payload(value: Any, field: str) -> int:
    """``value`` as an ``int`` when it is a JSON integer; otherwise refuse it.

    ``int()`` alone would truncate ``1.5`` and ``true`` to 1, and raise
    :class:`OverflowError` on ``1e400``, which JSON decodes to infinity.
    Anything but an integer raises a :class:`SpecificationError` naming
    ``field``.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecificationError(f"{field} must be an integer, got {value!r}")


def seed_to_payload(seed: Any) -> Any:
    """Encode one plan-entry seed as a JSON-able value.

    ``None`` and integers pass through unchanged; a
    :class:`numpy.random.Generator` is captured as its bit-generator state,
    which restores to a generator producing the *identical* stream — the
    sharding layer relies on this to slice plans carrying live generators
    without perturbing a single sample.
    """
    if seed is None:
        return None
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.Generator):
        return {
            "kind": "generator",
            "state": _jsonable(seed.bit_generator.state),
        }
    raise SpecificationError(
        f"entry seed of type {type(seed).__name__} is not wire-serializable "
        "(use None, an int, or a numpy Generator)"
    )


def seed_from_payload(raw: Any) -> Any:
    """Inverse of :func:`seed_to_payload`.

    A decoded generator draws the exact stream the encoded one would have
    drawn from the capture point onward.
    """
    if raw is None:
        return None
    if isinstance(raw, dict):
        if raw.get("kind") != "generator" or not isinstance(raw.get("state"), dict):
            raise SpecificationError(f"malformed seed payload: {raw!r}")
        state = raw["state"]
        name = state.get("bit_generator")
        # A whitelist, never getattr(np.random, name): a client-chosen name
        # could otherwise call np.random.seed and reseed this process.
        if not isinstance(name, str) or name not in BIT_GENERATORS:
            raise SpecificationError(f"unknown bit generator {name!r} in seed payload")
        generator = np.random.Generator(getattr(np.random, name)())
        try:
            generator.bit_generator.state = state
        # IndexError: an MT19937 key shorter than its 624 words.
        except (KeyError, TypeError, ValueError, OverflowError, IndexError) as exc:
            raise SpecificationError(f"malformed generator state: {exc}") from exc
        return generator
    return int_from_payload(raw, "seed")


def _doppler_to_payload(doppler: DopplerSpec) -> Dict[str, Any]:
    return {
        "normalized_doppler": float(doppler.normalized_doppler),
        "n_points": int(doppler.n_points),
        "input_variance_per_dim": float(doppler.input_variance_per_dim),
        "compensate_variance": bool(doppler.compensate_variance),
    }


def _fading_to_payload(fading: FadingSpec) -> Dict[str, Any]:
    # JSON emits the shortest repr of each double, so the shape and sigma
    # round-trip bit-exactly and the decoded spec hashes to the same
    # fading_token — plans differing only in fading never coalesce.
    return {
        "model": fading.model,
        "shape": None if fading.shape is None else float(fading.shape),
        "shadowing_sigma_db": float(fading.shadowing_sigma_db),
    }


#: Wire dtype of covariance matrices.
_C16 = np.dtype("<c16")


def _matrix_to_c16(matrix: np.ndarray) -> Dict[str, Any]:
    data = np.ascontiguousarray(matrix, dtype=_C16)
    return {
        "n": int(data.shape[0]),
        "c16": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _matrix_from_c16(raw: Any) -> np.ndarray:
    """Inverse of :func:`_matrix_to_c16`; malformed input raises
    :class:`SpecificationError`.

    The text length is checked against ``n`` before anything is decoded,
    so a huge ``n`` with short data allocates nothing.
    """
    if not isinstance(raw, dict):
        raise SpecificationError("a matrix must be an object")
    n = int_from_payload(raw.get("n"), "matrix.n")
    if n < 1:
        raise SpecificationError(f"matrix.n must be >= 1, got {n}")
    encoded = raw.get("c16")
    n_bytes = _C16.itemsize * n * n
    if not isinstance(encoded, str) or len(encoded) != 4 * -(-n_bytes // 3):
        raise SpecificationError(
            f"matrix.c16 must be the base64 of {n_bytes} bytes for n = {n}"
        )
    try:
        data = base64.b64decode(encoded, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise SpecificationError(f"matrix.c16 is not base64: {exc}") from exc
    if len(data) != n_bytes:
        raise SpecificationError(
            f"matrix.c16 holds {len(data)} bytes, expected {n_bytes} for n = {n}"
        )
    return np.frombuffer(data, dtype=_C16).reshape(n, n)


def plan_to_payload(
    plan: SimulationPlan, n_samples: int, *, client_id: Optional[str] = None
) -> Dict[str, Any]:
    """Encode one ``(plan, n_samples)`` submission as a JSON-able dict."""
    payload: Dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "n_samples": int(n_samples),
        "entries": [
            {
                "matrix": _matrix_to_c16(entry.spec.matrix),
                "seed": seed_to_payload(entry.seed),
                "coloring_method": entry.coloring_method,
                "psd_method": entry.psd_method,
                "epsilon": float(entry.epsilon),
                "sample_variance": float(entry.sample_variance),
                "doppler": (
                    None if entry.doppler is None else _doppler_to_payload(entry.doppler)
                ),
                "fading": (
                    None if entry.fading is None else _fading_to_payload(entry.fading)
                ),
                "label": entry.label,
            }
            for entry in plan
        ],
    }
    if client_id is not None:
        payload["client_id"] = str(client_id)
    return payload


def plan_from_payload(payload: Dict[str, Any]) -> Tuple[SimulationPlan, int]:
    """Decode a submission payload back into ``(plan, n_samples)``.

    Raises :class:`~repro.exceptions.SpecificationError` on structural
    problems (unknown version, missing fields, malformed matrices); a
    refused entry is named by its index.  The numeric validation of
    covariances happens in the plan, so a malformed matrix fails the
    request, not the service.
    """
    if not isinstance(payload, dict):
        raise SpecificationError("submission payload must be a JSON object")
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise SpecificationError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    try:
        n_samples = int_from_payload(payload["n_samples"], "n_samples")
        raw_entries = payload["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecificationError(f"malformed submission payload: {exc}") from exc
    if not isinstance(raw_entries, list) or not raw_entries:
        raise SpecificationError("submission payload needs a non-empty entry list")
    plan = SimulationPlan()
    for index, raw in enumerate(raw_entries):
        try:
            plan.add(
                _matrix_from_c16(raw["matrix"]),
                seed=seed_from_payload(raw.get("seed")),
                coloring_method=str(raw.get("coloring_method", "eigen")),
                psd_method=str(raw.get("psd_method", "clip")),
                epsilon=float(raw.get("epsilon", 1e-6)),
                sample_variance=float(raw.get("sample_variance", 1.0)),
                doppler=coerce_doppler(raw.get("doppler")),
                fading=coerce_fading(raw.get("fading")),
                label=raw.get("label"),
            )
        # SpecificationError is a ValueError; OverflowError is a JSON
        # integer past the float range.
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecificationError(
                f"malformed plan entry at index {index}: {exc}"
            ) from exc
    return plan, n_samples


def result_to_lines(result: BatchResult) -> Iterator[str]:
    """Stream one :class:`BatchResult` as NDJSON lines (no trailing ``\\n``).

    One header line, one line per entry block (base64 ``.npy`` samples —
    decoding yields arrays bit-identical to the in-process result), one
    terminator carrying the block count as an integrity check.  The text
    is exactly ``json.dumps`` of each record; block and terminator lines
    are formatted directly, so the encoder never scans the base64 text.
    """
    report = result.compile_report
    yield json.dumps(
        {
            "type": "result",
            "version": PROTOCOL_VERSION,
            "n_entries": len(result.blocks),
            "n_samples": int(result.n_samples),
            "execute_seconds": float(result.execute_seconds),
            "compile_report": {name: getattr(report, name) for name in _REPORT_FIELDS},
        }
    )
    for index, block in enumerate(result.blocks):
        metadata = block.metadata
        # Base64 needs no JSON escaping; the two small values go through
        # json.dumps, so any label encodes as it always did.
        yield '{"type": "block", "index": %d, "plan_index": %s, "label": %s, "npy": "%s"}' % (
            index,
            json.dumps(metadata.get("plan_index", index)),
            json.dumps(metadata.get("label")),
            encode_array(block.samples),
        )
    yield '{"type": "end", "n_blocks": %d}' % len(result.blocks)


def result_from_lines(lines: Iterator[str]) -> Dict[str, Any]:
    """Decode a :func:`result_to_lines` stream (the client half).

    Returns ``{"header": dict, "blocks": [ndarray, ...], "labels": [...]}``;
    raises :class:`~repro.exceptions.SpecificationError` on a truncated or
    out-of-order stream.
    """
    header = None
    blocks: List[np.ndarray] = []
    labels: List[Any] = []
    terminated = False
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"malformed result line: {exc}") from exc
        kind = record.get("type")
        if kind == "result":
            header = record
        elif kind == "block":
            if header is None:
                raise SpecificationError("result stream: block before header")
            blocks.append(decode_array(record["npy"]))
            labels.append(record.get("label"))
        elif kind == "end":
            if record.get("n_blocks") != len(blocks):
                raise SpecificationError(
                    "result stream truncated: expected "
                    f"{record.get('n_blocks')} blocks, got {len(blocks)}"
                )
            terminated = True
        else:
            raise SpecificationError(f"result stream: unknown record {kind!r}")
    if header is None or not terminated:
        raise SpecificationError("result stream truncated before terminator")
    return {"header": header, "blocks": blocks, "labels": labels}
