"""repro.service — envelope generation as a long-running service.

The serving layer over :class:`repro.api.Simulator`:
:class:`EnvelopeService` (bounded-queue asyncio core with per-client
fairness, request coalescing, backpressure, and cooperative cancellation),
the JSON/NDJSON wire protocol, and the stdlib HTTP/1.1 front end started by
``repro-experiments serve``.  See the "Serving layer" section of
``docs/ARCHITECTURE.md`` for the queueing diagram and the coalescing
bit-identity invariant.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Lazy (PEP 562): a shard worker that needs only the wire protocol does not
# load asyncio, the session layer or the HTTP front end.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": ("EnvelopeService", "request_key"),
        ".http": ("ServiceHTTPServer", "run_server"),
        ".metrics": ("ServiceMetrics",),
        ".protocol": (
            "PROTOCOL_VERSION",
            "decode_array",
            "encode_array",
            "plan_from_payload",
            "plan_to_payload",
            "result_from_lines",
            "result_to_lines",
        ),
    },
)

if TYPE_CHECKING:  # pragma: no cover - static view of the lazy names
    from .core import EnvelopeService, request_key
    from .http import ServiceHTTPServer, run_server
    from .metrics import ServiceMetrics
    from .protocol import (
        PROTOCOL_VERSION,
        decode_array,
        encode_array,
        plan_from_payload,
        plan_to_payload,
        result_from_lines,
        result_to_lines,
    )

__all__ = [
    "EnvelopeService",
    "request_key",
    "ServiceHTTPServer",
    "run_server",
    "ServiceMetrics",
    "PROTOCOL_VERSION",
    "plan_to_payload",
    "plan_from_payload",
    "encode_array",
    "decode_array",
    "result_to_lines",
    "result_from_lines",
]
