"""Transport hardening against hostile peers.

These tests pin the HTTP transport's defenses — bad/negative
``Content-Length``, oversized declarations, torn bodies, stalled and
trickled reads — and the hardening flags (``read_timeout_ms``,
``max_body_bytes``). The probes are the real attack injectors from
:mod:`repro.chaos.transport`, so the scenarios and the test suite
exercise identical wire traffic.
"""

from __future__ import annotations

import json
import select
import socket
import time

import pytest

from repro.chaos.transport import oversized_body, slow_loris, torn_body
from repro.serve import ServeClient, start_in_thread
from repro.serve.server import DEFAULT_MAX_BODY_BYTES


@pytest.fixture
def threaded(app):
    """A hardened threaded server: tight read deadline, small body cap."""
    server, _thread = start_in_thread(
        app, read_timeout_ms=300.0, max_body_bytes=2048
    )
    try:
        yield server
    finally:
        server.shutdown()


def _raw(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        except (socket.timeout, OSError):
            pass
        return response


class TestThreadedEdges:
    def test_malformed_request_line_gets_400(self, threaded):
        # The stdlib parser refuses it before the app sees a byte. With no
        # HTTP version on the line, the reply is a bare HTTP/0.9 error page.
        response = _raw(threaded.port, b"NONSENSE\r\n\r\n")
        assert b"Error code: 400" in response

    def test_bad_content_length_gets_400(self, threaded):
        response = _raw(
            threaded.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        )
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"bad_content_length" in response

    def test_negative_content_length_gets_400(self, threaded):
        response = _raw(
            threaded.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: -7\r\n\r\n",
        )
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"bad_content_length" in response

    def test_oversized_declaration_gets_413_before_any_read(self, threaded):
        result = oversized_body("127.0.0.1", threaded.port, declared=1 << 40)
        assert result["status"] == 413
        assert result["elapsed_s"] < 2.0

    def test_torn_body_gets_400(self, threaded):
        result = torn_body(
            "127.0.0.1", threaded.port, declared=512, sent=b'{"db": "aep'
        )
        assert result["status"] == 400
        assert json.loads(result["body"])["error"]["code"] == "incomplete_body"

    def test_stalled_loris_is_cut_by_the_read_deadline(self, threaded):
        # A loris that stalls between bytes longer than the 300ms
        # per-read deadline; without the deadline it would sit for the
        # full hold window.
        result = slow_loris(
            "127.0.0.1",
            threaded.port,
            hold_s=3.0,
            drip_interval_s=0.6,
        )
        assert result["cut_off"]
        assert result["elapsed_s"] < 2.5

    def test_trickling_loris_is_cut_by_the_whole_read_deadline(
        self, threaded
    ):
        # Continuous 50ms drip: every byte would reset a per-recv
        # timeout, but the deadline bounds the whole head read.
        result = slow_loris(
            "127.0.0.1",
            threaded.port,
            hold_s=3.0,
            drip_interval_s=0.05,
        )
        assert result["cut_off"]
        assert result["elapsed_s"] < 2.5

    def test_trickling_body_gets_408_within_the_deadline(self, threaded):
        # The body gets its own deadline once the head is in: a peer that
        # drips it is refused, however steadily the bytes arrive. The drip
        # stops once the reply is readable, so no byte races the close.
        with socket.create_connection(
            ("127.0.0.1", threaded.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\nContent-Length: 512\r\n\r\n"
            )
            started = time.monotonic()
            for _ in range(60):
                readable, _w, _x = select.select([sock], [], [], 0.05)
                if readable:
                    break
                sock.sendall(b" ")
            elapsed = time.monotonic() - started
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        assert b" 408 " in response.split(b"\r\n", 1)[0]
        assert b"read_timeout" in response
        assert elapsed < 2.5

    def test_normal_traffic_unaffected_by_hardening(self, threaded):
        client = ServeClient.connect(port=threaded.port)
        session = client.create_session(db="aep")
        answer = client.ask(
            session["id"], "How many audiences were created in January?"
        )
        assert answer["turns"] == 2


class TestThreadedDefaults:
    """Even with no flags, the body cap is on (the default limit)."""

    def test_default_cap_rejects_a_terabyte(self, app):
        server, _thread = start_in_thread(app)  # no hardening flags
        try:
            result = oversized_body(
                "127.0.0.1", server.port, declared=DEFAULT_MAX_BODY_BYTES + 1
            )
        finally:
            server.shutdown()
        assert result["status"] == 413
