"""End-to-end tests of the HTTP front end (:mod:`repro.service.http`).

Each test boots a real :class:`ServiceHTTPServer` on an ephemeral port and
talks to it over raw asyncio connections — no HTTP client library — so the
status lines, headers, and chunked framing on the wire are what is being
asserted, not a client's interpretation of them.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Simulator
from repro.engine import SimulationPlan
from repro.engine.backends import NumpyBackend
from repro.engine.cache import DecompositionCache
from repro.service import (
    EnvelopeService,
    ServiceHTTPServer,
    plan_to_payload,
    result_from_lines,
)

from conftest import FlakyBackend

BASE = np.array([[1.0, 0.45 + 0.15j], [0.45 - 0.15j, 1.7]], dtype=complex)


def _plan(seed=7, scale=1.0):
    plan = SimulationPlan()
    plan.add(scale * BASE, seed=seed)
    return plan


class GatedBackend(NumpyBackend):
    """A numpy backend whose ``eigh`` blocks until the test releases it."""

    name = "gated-numpy"
    tolerance = 1e-299  # never cache-aliased with numpy

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def eigh(self, stack):
        self.entered.set()
        if not self.release.wait(timeout=10):
            raise RuntimeError("gate never released")  # pragma: no cover
        return super().eigh(stack)


async def _request(port, method, path, body=None):
    """One HTTP/1.1 exchange; returns (status, headers, raw body bytes)."""
    payload = b"" if body is None else json.dumps(body).encode("utf8")
    return await _exchange(port, method, path, str(len(payload)), payload)


async def _exchange(port, method, path, content_length, payload=b""):
    """Send ``Content-Length: <content_length>`` verbatim, then ``payload``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    writer.write(head.encode("ascii") + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    return status, headers, raw


def _dechunk(data: bytes) -> bytes:
    """Decode HTTP/1.1 chunked transfer encoding."""
    out = bytearray()
    index = 0
    while True:
        newline = data.index(b"\r\n", index)
        size = int(data[index:newline], 16)
        if size == 0:
            break
        start = newline + 2
        out.extend(data[start : start + size])
        index = start + size + 2
    return bytes(out)


async def _submit_raw(port, raw_bytes):
    """POST raw (possibly invalid) bytes to /v1/plans."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"POST /v1/plans HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(raw_bytes)}\r\n\r\n"
    )
    writer.write(head.encode("ascii") + raw_bytes)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    return status


async def _send_head(port, head):
    """Send raw request-head bytes; return the answer's ``(status, json body)``.

    The server may answer and close before it has read the whole head, so
    the exchange runs on the bare socket: a failed send is tolerated, and
    the answer already received is read before the connection reset.
    """
    loop = asyncio.get_running_loop()
    with socket.socket() as sock:
        sock.setblocking(False)
        await loop.sock_connect(sock, ("127.0.0.1", port))
        try:
            await loop.sock_sendall(sock, head)
        except ConnectionError:
            pass
        data = b""
        while True:
            try:
                chunk = await loop.sock_recv(sock, 65536)
            except ConnectionError:
                break
            if not chunk:
                break
            data += chunk
    head_bytes, _, body = data.partition(b"\r\n\r\n")
    return int(head_bytes.split()[1]), json.loads(body)


def _serve(simulator, **service_kwargs):
    """Async context manager: a started service + server on port 0."""

    class _Ctx:
        async def __aenter__(self):
            self.service = EnvelopeService(simulator, **service_kwargs)
            await self.service.start()
            self.server = ServiceHTTPServer(self.service, "127.0.0.1", 0)
            await self.server.start()
            return self.service, self.server

        async def __aexit__(self, *exc_info):
            await self.server.stop()
            await self.service.stop()

    return _Ctx()


class TestRoutes:
    def test_healthz_and_metrics(self):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                status, _headers, raw = await _request(server.port, "GET", "/healthz")
                assert status == 200
                assert json.loads(raw) == {"status": "ok", "running": True}
                status, _headers, raw = await _request(
                    server.port, "GET", "/v1/metrics"
                )
                assert status == 200
                metrics = json.loads(raw)
                assert metrics["requests_submitted"] == 0
                assert metrics["max_queue"] == 64
            sim.close()

        asyncio.run(scenario())

    def test_unknown_route_and_unknown_ids_404(self):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                for method, path in (
                    ("GET", "/nope"),
                    ("PUT", "/v1/plans"),
                    ("GET", "/v1/plans/req-000001"),
                    ("DELETE", "/v1/plans/req-000001"),
                    ("GET", "/v1/plans/req-000001/result"),
                ):
                    status, _headers, _raw = await _request(
                        server.port, method, path
                    )
                    assert status == 404, (method, path)
            sim.close()

        asyncio.run(scenario())

    def test_submit_poll_stream_round_trip_is_bit_identical(self):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                payload = plan_to_payload(_plan(seed=5), 96, client_id="wire")
                status, _headers, raw = await _request(
                    server.port, "POST", "/v1/plans", body=payload
                )
                assert status == 202
                submitted = json.loads(raw)
                request_id = submitted["request_id"]
                status, _headers, raw = await _request(
                    server.port, "GET", f"/v1/plans/{request_id}"
                )
                assert status == 200
                assert json.loads(raw)["client_id"] == "wire"
                status, headers, raw = await _request(
                    server.port, "GET", f"/v1/plans/{request_id}/result"
                )
                assert status == 200
                assert headers["transfer-encoding"] == "chunked"
                assert headers["content-type"] == "application/x-ndjson"
                lines = _dechunk(raw).decode("utf8").splitlines()
                return result_from_lines(iter(lines))
            sim.close()

        decoded = asyncio.run(scenario())
        reference_sim = Simulator(cache=DecompositionCache())
        try:
            reference = reference_sim.run(_plan(seed=5), 96)
        finally:
            reference_sim.close()
        assert np.array_equal(decoded["blocks"][0], reference.blocks[0].samples)

    def test_bad_submissions_400(self):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                assert await _submit_raw(server.port, b"{not json") == 400
                bad_version = plan_to_payload(_plan(), 32)
                bad_version["version"] = 42
                status, _headers, raw = await _request(
                    server.port, "POST", "/v1/plans", body=bad_version
                )
                assert status == 400
                assert "version" in json.loads(raw)["error"]
                # A structurally valid payload with a bad sample count.
                bad_samples = plan_to_payload(_plan(), 32)
                bad_samples["n_samples"] = 0
                status, _headers, _raw = await _request(
                    server.port, "POST", "/v1/plans", body=bad_samples
                )
                assert status == 400
            sim.close()

        asyncio.run(scenario())

    def test_deeply_nested_json_400_and_the_server_survives(self):
        # json.loads raises RecursionError on this body.
        body = b"[" * 100_000 + b"]" * 100_000

        async def scenario():
            sim = Simulator()
            async with _serve(sim) as (service, server):
                assert await _submit_raw(server.port, body) == 400
                status, _headers, raw = await _request(server.port, "GET", "/healthz")
                assert status == 200
                assert json.loads(raw)["running"]
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_bad_content_length_400_and_oversized_413(self):
        from repro.service.http import MAX_BODY_BYTES

        cases = [("abc", 400), ("-5", 400), ("1_0", 400)]
        # No body follows an oversized length: the 413 must come unread.
        cases += [(str(MAX_BODY_BYTES + 1), 413), ("99999999999", 413)]

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                for length, expected in cases:
                    status, _headers, raw = await _exchange(
                        server.port, "POST", "/v1/plans", length
                    )
                    assert status == expected
                    assert "Content-Length" in json.loads(raw)["error"]
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_oversized_request_line_414(self):
        from repro.service.http import MAX_HEAD_BYTES

        # Past the head bound, and past the stream reader's own line limit.
        for size in (MAX_HEAD_BYTES, 70_000):
            head = f"GET /{'a' * size} HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii")
            self._assert_rejected(head, 414, "request line")

    def test_oversized_header_section_431(self):
        from repro.service.http import MAX_HEAD_BYTES

        line = lambda index, size: f"X-Pad-{index}: {'a' * size}\r\n"  # noqa: E731
        heads = [
            # One header line past the stream reader's own line limit.
            line(0, 70_000),
            # Many lines, each short, that together pass the bound.
            "".join(line(index, 1024) for index in range(MAX_HEAD_BYTES // 1024 + 1)),
            # Far more than the server will ever read: answered early.
            "".join(line(index, 4096) for index in range(300)),
        ]
        for headers in heads:
            head = f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode("ascii")
            self._assert_rejected(head, 431, "header section")

    def test_head_just_under_the_bound_is_served(self):
        from repro.service.http import MAX_HEAD_BYTES

        request_line = "GET /healthz HTTP/1.1\r\n"
        pad = MAX_HEAD_BYTES - len(request_line) - len("X-Pad: \r\n") - len("\r\n")
        head = f"{request_line}X-Pad: {'a' * pad}\r\n\r\n".encode("ascii")
        assert len(head) == MAX_HEAD_BYTES

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                status, body = await _send_head(server.port, head)
                assert (status, body["status"]) == (200, "ok")
            sim.close()

        asyncio.run(scenario())

    @staticmethod
    def _assert_rejected(head, expected, part):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                status, body = await _send_head(server.port, head)
                assert status == expected
                assert part in body["error"]
                status, _headers, raw = await _request(server.port, "GET", "/healthz")
                assert status == 200
                assert json.loads(raw)["status"] == "ok"
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_malformed_fading_maps_to_400_not_500(self):
        """A bad fading spec is a client error naming the offending field."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                cases = [
                    ({"model": "nakagami"}, "fading.shape"),
                    ({"model": "rice", "shape": 2.0}, "fading.model"),
                    ({"model": "rician", "k_factor": 2.0}, "k_factor"),
                    (
                        {"model": "rician", "shape": 2.0, "shadowing_sigma_db": -1},
                        "fading.shadowing_sigma_db",
                    ),
                ]
                for fading, needle in cases:
                    payload = plan_to_payload(_plan(), 32)
                    payload["entries"][0]["fading"] = fading
                    status, _headers, raw = await _request(
                        server.port, "POST", "/v1/plans", body=payload
                    )
                    assert status == 400
                    assert needle in json.loads(raw)["error"]
            sim.close()

        asyncio.run(scenario())

    def test_weibull_k_overflowing_its_power_gamma_maps_to_400(self):
        """Gamma(1 + 2/k) overflows for k below ~0.0118: refused at submit.

        Such a k once passed validation, answered 202, and failed the
        flight with a 500 ``OverflowError`` from the stacked Weibull scale.
        """

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                payload = plan_to_payload(_plan(), 32)
                payload["entries"][0]["fading"] = {"model": "weibull", "shape": 0.005}
                status, _headers, raw = await _request(
                    server.port, "POST", "/v1/plans", body=payload
                )
                assert status == 400
                assert "fading.shape" in json.loads(raw)["error"]
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_malformed_doppler_maps_to_400_not_500(self):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                for doppler in ({"n_points": 64}, {"normalized_doppler": "x"}, 0.9):
                    payload = plan_to_payload(_plan(), 32)
                    payload["entries"][0]["doppler"] = doppler
                    status, _headers, raw = await _request(
                        server.port, "POST", "/v1/plans", body=payload
                    )
                    assert status == 400
                    assert "doppler" in json.loads(raw)["error"].lower()
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_hostile_seed_names_map_to_400_without_touching_global_rng(self):
        """Names that are not bit generators are client errors, not 500s."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                for name in ("seed", "Generator"):
                    payload = plan_to_payload(_plan(), 32)
                    payload["entries"][0]["seed"] = {
                        "kind": "generator",
                        "state": {"bit_generator": name},
                    }
                    before = np.random.get_state()
                    status, _headers, raw = await _request(
                        server.port, "POST", "/v1/plans", body=payload
                    )
                    after = np.random.get_state()
                    assert status == 400
                    assert "bit generator" in json.loads(raw)["error"]
                    assert after[1].tobytes() == before[1].tobytes()
                    assert after[2:] == before[2:]
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_short_mt19937_key_maps_to_400(self):
        short = {"bit_generator": "MT19937", "state": {"key": [1] * 10, "pos": 0}}
        payload = plan_to_payload(_plan(), 32)
        payload["entries"][0]["seed"] = {"kind": "generator", "state": short}

        async def scenario():
            sim = Simulator()
            async with _serve(sim) as (_service, server):
                status, _headers, raw = await _request(
                    server.port, "POST", "/v1/plans", body=payload
                )
                assert status == 400
                assert "generator state" in json.loads(raw)["error"]
            sim.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "field, literal",
        [("n_samples", "1e400"), ("seed", "1e400"), ("seed", "-1e400"), ("seed", "1.5")],
    )
    def test_non_integer_counts_and_seeds_map_to_400(self, field, literal):
        """``1e400`` decodes to infinity; it once reached ``int()`` and a 500."""
        payload = plan_to_payload(_plan(), 32)
        marker = "__replaced__"
        if field == "n_samples":
            payload["n_samples"] = marker
        else:
            payload["entries"][0]["seed"] = marker
        body = json.dumps(payload).replace(f'"{marker}"', literal).encode()

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                status, _headers, raw = await _exchange(
                    server.port, "POST", "/v1/plans", str(len(body)), body
                )
                assert status == 400
                assert f"{field} must be an integer" in json.loads(raw)["error"]
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("field", ["epsilon", "sample_variance", "matrix.re"])
    def test_over_range_number_maps_to_400(self, field):
        """A JSON integer past the float range once escaped as a 500."""
        payload = plan_to_payload(_plan(), 32)
        entry = payload["entries"][0]
        if field == "matrix.re":
            entry["matrix"]["re"][0][1] = 10**400
        else:
            entry[field] = 10**400

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                status, _headers, raw = await _request(
                    server.port, "POST", "/v1/plans", body=payload
                )
                assert status == 400
                assert "entry at index 0" in json.loads(raw)["error"]
                status, _headers, _raw = await _request(server.port, "GET", "/healthz")
                assert status == 200
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())

    def test_non_finite_covariance_maps_to_400(self):
        """JSON's ``Infinity`` never reaches a flight: submit answers 400."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                for real in ([[1.0, np.inf], [np.inf, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
                    payload = plan_to_payload(_plan(), 32)
                    payload["entries"][0]["matrix"] = {"re": real, "im": [[0.0] * 2] * 2}
                    status, _headers, raw = await _request(
                        server.port, "POST", "/v1/plans", body=payload
                    )
                    assert status == 400
                    assert "non-finite" in json.loads(raw)["error"]
                assert service.metrics()["requests_submitted"] == 0
            sim.close()

        asyncio.run(scenario())


class TestBackpressureAndCancellation:
    def test_full_queue_429_with_retry_after(self):
        backend = GatedBackend()

        async def scenario():
            sim = Simulator(backend=backend, cache=DecompositionCache(), max_workers=1)
            async with _serve(sim, max_queue=1, dispatch_slots=1) as (
                _service,
                server,
            ):
                # First plan occupies the only dispatch slot (gated mid-eigh).
                status, _h, _r = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=1), 32),
                )
                assert status == 202
                await asyncio.to_thread(backend.entered.wait, 10)
                # Second plan fills the one queue slot.
                status, _h, _r = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=2), 32),
                )
                assert status == 202
                # Third is rejected with the backpressure contract on the wire.
                status, headers, raw = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=3), 32),
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                body = json.loads(raw)
                assert body["retry_after"] > 0
                backend.release.set()
            sim.close()

        asyncio.run(scenario())

    def test_delete_cancels_queued_request_409_result(self):
        backend = GatedBackend()

        async def scenario():
            sim = Simulator(backend=backend, cache=DecompositionCache(), max_workers=1)
            async with _serve(sim, max_queue=4, dispatch_slots=1) as (
                _service,
                server,
            ):
                status, _h, raw = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=1), 32),
                )
                assert status == 202
                await asyncio.to_thread(backend.entered.wait, 10)
                # Queued behind the gated flight: cancellable before dispatch.
                status, _h, raw = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=2), 32),
                )
                assert status == 202
                victim = json.loads(raw)["request_id"]
                status, _h, raw = await _request(
                    server.port, "DELETE", f"/v1/plans/{victim}"
                )
                assert status == 200
                assert json.loads(raw) == {"request_id": victim, "cancelled": True}
                # Cancelling twice is idempotent and reported as a no-op.
                status, _h, raw = await _request(
                    server.port, "DELETE", f"/v1/plans/{victim}"
                )
                assert status == 200
                assert json.loads(raw)["cancelled"] is False
                status, _h, raw = await _request(
                    server.port, "GET", f"/v1/plans/{victim}/result"
                )
                assert status == 409
                assert "cancelled" in json.loads(raw)["error"]
                backend.release.set()
            sim.close()

        asyncio.run(scenario())


class TestFailures:
    def test_failed_flight_maps_to_500_with_fault_name(self, flaky_backend):
        async def scenario():
            sim = Simulator(
                backend=flaky_backend(fail_at=1), cache=DecompositionCache()
            )
            async with _serve(sim, dispatch_slots=1) as (_service, server):
                status, _h, raw = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=1), 32),
                )
                assert status == 202
                request_id = json.loads(raw)["request_id"]
                status, _h, raw = await _request(
                    server.port, "GET", f"/v1/plans/{request_id}/result"
                )
                assert status == 500
                assert "InjectedFault" in json.loads(raw)["error"]
                # The server survives: the next submission succeeds.
                status, _h, raw = await _request(
                    server.port,
                    "POST",
                    "/v1/plans",
                    body=plan_to_payload(_plan(seed=2), 32),
                )
                assert status == 202
                survivor = json.loads(raw)["request_id"]
                status, _h, _raw = await _request(
                    server.port, "GET", f"/v1/plans/{survivor}/result"
                )
                assert status == 200
            sim.close()

        asyncio.run(scenario())

    def test_overflowing_4x4_matrix_is_a_client_error_not_500(self):
        """An N = 4 matrix whose Hermitian part overflows once reached
        numpy's ``LinAlgError`` and answered 500."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim, dispatch_slots=1) as (_service, server):
                plan = SimulationPlan()
                plan.add(np.eye(4), seed=1, label="bad")
                payload = plan_to_payload(plan, 32)
                matrix = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
                matrix[0][1] = matrix[1][0] = 1e308
                payload["entries"][0]["matrix"]["re"] = matrix
                status, _h, raw = await _request(server.port, "POST", "/v1/plans", body=payload)
                if status == 202:
                    request_id = json.loads(raw)["request_id"]
                    status, _h, raw = await _request(
                        server.port, "GET", f"/v1/plans/{request_id}/result"
                    )
                assert status in (400, 422)
                assert "label 'bad'" in json.loads(raw)["error"]
                status, _h, _raw = await _request(server.port, "GET", "/healthz")
                assert status == 200
            sim.close()

        asyncio.run(scenario())

    def test_input_failure_maps_to_422_and_the_server_survives(self):
        """A finite matrix that PSD forcing cannot repair fails its flight with 422."""

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim, dispatch_slots=1) as (_service, server):
                payload = plan_to_payload(_plan(), 32)
                payload["entries"][0]["matrix"] = {
                    "re": [[1.0, 1e308], [1e308, 1.0]],
                    "im": [[0.0, 0.0], [0.0, 0.0]],
                }
                status, _h, raw = await _request(server.port, "POST", "/v1/plans", body=payload)
                assert status == 202
                request_id = json.loads(raw)["request_id"]
                status, _h, raw = await _request(
                    server.port, "GET", f"/v1/plans/{request_id}/result"
                )
                assert status == 422
                assert json.loads(raw)["error"].startswith("CovarianceError: PSD forcing")
                status, _h, raw = await _request(
                    server.port, "POST", "/v1/plans", body=plan_to_payload(_plan(seed=2), 32)
                )
                assert status == 202
                survivor = json.loads(raw)["request_id"]
                status, _h, _raw = await _request(
                    server.port, "GET", f"/v1/plans/{survivor}/result"
                )
                assert status == 200
            sim.close()

        asyncio.run(scenario())


async def _raw_exchange(port, method, path):
    """One request without a body; returns every byte the server sent."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("ascii"))
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    return data


def _per_line_response(result):
    """A result response as it was written before: one write per line piece."""
    import base64
    import io
    from dataclasses import asdict

    def encode(array):
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
        return base64.b64encode(buffer.getvalue()).decode("ascii")

    lines = [
        json.dumps(
            {
                "type": "result",
                "version": 1,
                "n_entries": len(result.blocks),
                "n_samples": int(result.n_samples),
                "backend": result.backend,
                "execute_seconds": float(result.execute_seconds),
                "compile_report": asdict(result.compile_report),
            }
        )
    ]
    for index, block in enumerate(result.blocks):
        lines.append(
            json.dumps(
                {
                    "type": "block",
                    "index": index,
                    "plan_index": block.metadata.get("plan_index", index),
                    "label": block.metadata.get("label"),
                    "npy": encode(block.samples),
                }
            )
        )
    lines.append(json.dumps({"type": "end", "n_blocks": len(result.blocks)}))
    out = (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n"
    )
    for line in lines:
        data = (line + "\n").encode("utf8")
        out += f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
    return out + b"0\r\n\r\n"


def _indefinite_4x4():
    """A unit-diagonal 4 x 4 matrix with a clearly negative eigenvalue."""
    matrix = np.array(
        [
            [1.0, 0.9, -0.6, 0.8],
            [0.9, 1.0, 0.7, -0.5],
            [-0.6, 0.7, 1.0, 0.9],
            [0.8, -0.5, 0.9, 1.0],
        ],
        dtype=complex,
    )
    assert np.linalg.eigvalsh(matrix).min() < -0.1
    return matrix


class TestResultWire:
    @pytest.mark.parametrize(
        "n_branches, n_samples, labels",
        [(3, 256, (None, "alpha")), (32, 2048, ("ñ-δ-東京", None))],
    )
    def test_response_bytes_equal_the_per_line_writes(self, n_branches, n_samples, labels):
        plan = SimulationPlan()
        for offset, label in enumerate(labels):
            plan.add(np.eye(n_branches, dtype=complex) * (1 + offset), seed=offset, label=label)

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                status, _h, raw = await _request(
                    server.port, "POST", "/v1/plans", body=plan_to_payload(plan, n_samples)
                )
                assert status == 202
                request_id = json.loads(raw)["request_id"]
                data = await _raw_exchange(server.port, "GET", f"/v1/plans/{request_id}/result")
                result = await service.result(request_id)
            sim.close()
            return data, result

        data, result = asyncio.run(scenario())
        assert data == _per_line_response(result)

    def test_warm_repeat_runs_inline_and_decodes_identically(self):
        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (_service, server):
                decoded = []
                for seed in (1, 2):
                    status, _h, raw = await _request(
                        server.port, "POST", "/v1/plans", body=plan_to_payload(_plan(seed), 64)
                    )
                    request_id = json.loads(raw)["request_id"]
                    status, _h, raw = await _request(
                        server.port, "GET", f"/v1/plans/{request_id}/result"
                    )
                    assert status == 200
                    lines = _dechunk(raw).decode("utf8").splitlines()
                    decoded.append(result_from_lines(iter(lines))["blocks"][0])
                _status, _h, raw = await _request(server.port, "GET", "/v1/metrics")
            sim.close()
            return decoded, json.loads(raw)

        decoded, metrics = asyncio.run(scenario())
        assert (metrics["flights_pooled"], metrics["flights_inline"]) == (1, 1)
        reference_sim = Simulator(cache=DecompositionCache())
        try:
            for seed, got in zip((1, 2), decoded):
                want = reference_sim.run(_plan(seed), 64).blocks[0].samples
                assert got.tobytes() == want.tobytes()
        finally:
            reference_sim.close()


class TestAdmission:
    def test_huge_sample_count_413_without_allocating(self):
        import tracemalloc

        payload = plan_to_payload(_plan(), 32)
        payload["n_samples"] = 2**40

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim) as (service, server):
                tracemalloc.start()
                try:
                    before, _ = tracemalloc.get_traced_memory()
                    status, _h, raw = await _request(
                        server.port, "POST", "/v1/plans", body=payload
                    )
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert status == 413
                assert "limit" in json.loads(raw)["error"]
                assert peak - before < 1 << 20
                status, _h, raw = await _request(server.port, "GET", "/healthz")
                assert status == 200
                metrics = service.metrics()
                assert metrics["requests_too_large"] == 1
                assert metrics["requests_submitted"] == 0
                assert metrics["queued_flights"] == 0
            sim.close()

        asyncio.run(scenario())


class TestHighamOverHttp:
    def test_higham_on_an_indefinite_4x4_answers_200(self):
        plan = SimulationPlan()
        plan.add(_indefinite_4x4(), seed=3, psd_method="higham", label="higham")

        async def scenario():
            sim = Simulator(cache=DecompositionCache())
            async with _serve(sim, dispatch_slots=1) as (_service, server):
                status, _h, raw = await _request(
                    server.port, "POST", "/v1/plans", body=plan_to_payload(plan, 64)
                )
                assert status == 202
                request_id = json.loads(raw)["request_id"]
                status, _h, raw = await _request(
                    server.port, "GET", f"/v1/plans/{request_id}/result"
                )
            sim.close()
            return status, raw

        status, raw = asyncio.run(scenario())
        assert status == 200, raw
        blocks = result_from_lines(iter(_dechunk(raw).decode("utf8").splitlines()))["blocks"]
        reference_sim = Simulator(cache=DecompositionCache())
        try:
            want = reference_sim.run(plan, 64).blocks[0].samples
        finally:
            reference_sim.close()
        assert blocks[0].tobytes() == want.tobytes()


def _healthz(port):
    """The ``/healthz`` status, or ``None`` while nothing listens."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status
    except ConnectionRefusedError:
        return None
    finally:
        conn.close()


class TestShutdown:
    def test_sigterm_stops_serve_with_status_0_and_frees_the_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("REPRO_CACHE_DIR", None)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", str(port)],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60.0
            while _healthz(port) != 200:
                assert process.poll() is None, process.stdout.read()
                assert time.monotonic() < deadline, "serve never answered /healthz"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0, process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        assert _healthz(port) is None
