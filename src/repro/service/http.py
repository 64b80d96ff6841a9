"""Thin HTTP/1.1 front end over :class:`~repro.service.core.EnvelopeService`.

Pure-stdlib asyncio streams — no web framework.  The surface:

========  ==========================  =======================================
Method    Path                        Semantics
========  ==========================  =======================================
GET       ``/healthz``                liveness probe
GET       ``/v1/metrics``             counter + gauge snapshot (JSON)
POST      ``/v1/plans``               submit a plan payload → ``202`` with a
                                      request id; ``429`` + ``Retry-After``
                                      under backpressure; ``400`` on a
                                      malformed payload or
                                      ``Content-Length``, or a body
                                      shorter than it; ``413`` above
                                      ``MAX_BODY_BYTES`` (body never read)
                                      or for a result record above
                                      ``MAX_RESULT_BYTES`` (never queued)
any       any                         ``414`` for a request line, ``431``
                                      for a header section, that would
                                      take the head past ``MAX_HEAD_BYTES``
GET       ``/v1/plans/<id>``          status snapshot (``404`` unknown)
DELETE    ``/v1/plans/<id>``          cancel (idempotent)
GET       ``/v1/plans/<id>/result``   await + stream the result as chunked
                                      NDJSON (see ``protocol.result_to_lines``);
                                      ``409`` if cancelled, ``422`` if the
                                      flight failed on its input (e.g. PSD
                                      forcing of the matrix), ``500`` on any
                                      other failure
========  ==========================  =======================================

Every connection handles one request (``Connection: close``): the server is
meant to sit behind clients that pipeline via many short connections, which
keeps the parser ~50 lines and removes keep-alive state entirely.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple

from ..exceptions import (
    BackpressureError,
    CovarianceError,
    DecompositionError,
    DopplerError,
    ReproError,
    RequestTooLargeError,
    ServiceError,
    SpecificationError,
)
from .core import EnvelopeService
from .protocol import plan_from_payload, result_to_lines

__all__ = ["ServiceHTTPServer", "run_server"]

#: Largest accepted request body (a plan payload), in bytes.
MAX_BODY_BYTES = 64 * 1024 * 1024

# A small body can still ask for a huge result: ``core.MAX_RESULT_BYTES``
# (1 GiB) bounds the result record, Σ N·n·16 bytes, and a plan above it is
# answered 413 at submit, before anything is queued.

#: A result response is written in one piece up to this many bytes, and in
#: pieces of about this size beyond it, so a large record is not held
#: encoded twice over.
RESPONSE_WRITE_BYTES = 1024 * 1024

#: Largest accepted request head (request line plus headers), in bytes.
#: Below the stream reader's 64 KiB line limit, so an over-long line is
#: rejected here and not by the reader.
MAX_HEAD_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Flight failures caused by the submitted plan itself, answered with 422.
_INPUT_ERRORS = (SpecificationError, CovarianceError, DecompositionError, DopplerError)


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


class _RequestError(Exception):
    """A request rejected while reading it, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceHTTPServer:
    """One asyncio HTTP server bound to one :class:`EnvelopeService`."""

    def __init__(
        self,
        service: EnvelopeService,
        host: str = "127.0.0.1",
        port: int = 8437,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``0`` to the ephemeral port chosen)."""
        if self._server is not None and self._server.sockets:
            return int(self._server.sockets[0].getsockname()[1])
        return self._port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, headers, body = parsed
            await self._dispatch(writer, method, path, headers, body)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        except Exception as exc:
            if isinstance(exc, _RequestError):
                status, error = exc.status, str(exc)
            else:  # a handler bug must not kill the server loop: best-effort 500
                status, error = 500, f"{type(exc).__name__}: {exc}"
            try:
                await self._send_json(writer, status, {"error": error})
            except Exception:  # pragma: no cover - socket already dead
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - already closed
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        budget = MAX_HEAD_BYTES
        request_line = await _read_head_line(reader, budget, 414, "request line")
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode("ascii").split()
        except ValueError:
            return None
        budget -= len(request_line)
        headers: Dict[str, str] = {}
        while True:
            line = await _read_head_line(reader, budget, 431, "header section")
            budget -= len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        # Digits only: int() would also take signs, underscores and
        # non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _RequestError(400, f"invalid Content-Length header: {raw_length!r}")
        # Measured as text first: int() refuses more than 4300 digits.
        digits = raw_length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            shown = digits if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"
            raise _RequestError(
                413, f"Content-Length {shown} exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _RequestError(
                400,
                f"request body ended after {len(exc.partial)} of the "
                f"{length} bytes its Content-Length announced",
            ) from None
        return method.upper(), path, headers, body

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            await self._send_json(
                writer,
                200,
                {"status": "ok", "running": self._service.is_running},
            )
            return
        if path == "/v1/metrics" and method == "GET":
            await self._send_json(writer, 200, self._service.metrics())
            return
        if path == "/v1/plans" and method == "POST":
            await self._handle_submit(writer, body)
            return
        if path.startswith("/v1/plans/"):
            tail = path[len("/v1/plans/"):]
            if tail.endswith("/result") and method == "GET":
                await self._handle_result(writer, tail[: -len("/result")].rstrip("/"))
                return
            if "/" not in tail:
                if method == "GET":
                    await self._handle_status(writer, tail)
                    return
                if method == "DELETE":
                    await self._handle_cancel(writer, tail)
                    return
        await self._send_json(writer, 404, {"error": f"no route for {method} {path}"})

    # ------------------------------------------------------------------ #
    # Route handlers
    # ------------------------------------------------------------------ #
    async def _handle_submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf8"))
            plan, n_samples = plan_from_payload(payload)
            client_id = str(payload.get("client_id") or "anonymous")
        # RecursionError: nesting deeper than the decoder's stack allows.
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            await self._send_json(writer, 400, {"error": f"invalid JSON: {exc}"})
            return
        except ReproError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        try:
            request_id = self._service.submit(plan, n_samples, client_id=client_id)
        except RequestTooLargeError as exc:
            await self._send_json(writer, 413, {"error": str(exc)})
            return
        except BackpressureError as exc:
            await self._send_json(
                writer,
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
            return
        except ServiceError as exc:
            await self._send_json(writer, 503, {"error": str(exc)})
            return
        except ReproError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        await self._send_json(
            writer, 202, {"request_id": request_id, "status": "queued"}
        )

    async def _handle_status(
        self, writer: asyncio.StreamWriter, request_id: str
    ) -> None:
        status = self._service.status(request_id)
        if status is None:
            await self._send_json(
                writer, 404, {"error": f"unknown request id {request_id!r}"}
            )
            return
        await self._send_json(writer, 200, status)

    async def _handle_cancel(
        self, writer: asyncio.StreamWriter, request_id: str
    ) -> None:
        if self._service.status(request_id) is None:
            await self._send_json(
                writer, 404, {"error": f"unknown request id {request_id!r}"}
            )
            return
        cancelled = self._service.cancel(request_id)
        await self._send_json(
            writer, 200, {"request_id": request_id, "cancelled": cancelled}
        )

    async def _handle_result(
        self, writer: asyncio.StreamWriter, request_id: str
    ) -> None:
        try:
            result = await self._service.result(request_id)
        except ServiceError as exc:
            status = 409 if "cancelled" in str(exc) else 404
            await self._send_json(writer, status, {"error": str(exc)})
            return
        except Exception as exc:
            # The flight failed; the failure belongs to this request only.
            status = 422 if isinstance(exc, _INPUT_ERRORS) else 500
            await self._send_json(
                writer, status, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        # One chunk per NDJSON line; a typical response goes out in one write.
        parts = [
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        ]
        pending = 0
        for line in result_to_lines(result):
            data = (line + "\n").encode("utf8")
            parts += (b"%x\r\n" % len(data), data, b"\r\n")
            pending += len(data)
            if pending >= RESPONSE_WRITE_BYTES:
                writer.write(b"".join(parts))
                await writer.drain()
                parts, pending = [], 0
        parts.append(b"0\r\n\r\n")
        writer.write(b"".join(parts))
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf8")
        head = [
            f"HTTP/1.1 {status} {_reason(status)}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        await writer.drain()


async def _read_head_line(
    reader: asyncio.StreamReader, budget: int, status: int, part: str
) -> bytes:
    """One line of the request head, or ``status`` once it would exceed ``budget``.

    Nothing more is read after the budget runs out, so a client cannot make
    the server buffer an unbounded head.
    """
    try:
        line = await reader.readline()
    except ValueError:  # a line past the reader's own limit
        line = None
    if line is None or len(line) > budget:
        raise _RequestError(
            status, f"{part} exceeds the {MAX_HEAD_BYTES}-byte request head limit"
        )
    return line


def run_server(
    host: str = "127.0.0.1",
    port: int = 8437,
    *,
    simulator=None,
    max_queue: int = 64,
    dispatch_slots: int = 4,
) -> None:
    """Blocking entry point for the CLI: serve until SIGINT or SIGTERM.

    Either signal stops accepting connections, closes the listener and
    leaves the service context, and the call returns normally.
    """

    async def _main() -> None:
        main_task = asyncio.current_task()
        try:
            # SIGTERM, which process managers send, takes SIGINT's path:
            # asyncio.run cancels the main task on SIGINT.
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, main_task.cancel)
        except (NotImplementedError, RuntimeError):  # no signal handlers here
            pass
        service = EnvelopeService(
            simulator, max_queue=max_queue, dispatch_slots=dispatch_slots
        )
        async with service:
            server = ServiceHTTPServer(service, host, port)
            await server.start()
            try:
                await server.serve_forever()
            except asyncio.CancelledError:  # SIGINT or SIGTERM: shut down
                pass
            finally:
                await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
