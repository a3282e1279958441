"""Hostile HTTP clients: raw-socket attack traffic for the serve layer.

Where :mod:`repro.chaos.diskfaults` attacks the storage plane, this
module attacks the wire. Each injector is a deliberately misbehaving
client built on bare sockets — no :mod:`http.client`, which is too
polite to produce these shapes:

* :func:`slow_loris` — opens a connection and trickles (or stalls) the
  request head, holding server resources open. Against a hardened
  transport (``read_timeout_ms``) the server must cut the connection
  loose instead of parking a thread or buffer on it forever.
* :func:`torn_body` — declares ``Content-Length: N``, sends fewer than
  ``N`` bytes, then half-closes. The server must answer 400 — never hand
  a truncated body to the app.
* :func:`oversized_body` — declares a huge ``Content-Length`` without
  sending the body. A capped transport answers 413 *before* reading
  (and before allocating) anything.

All injectors are synchronous, bounded by explicit timeouts, and return
plain dicts the scenario runner turns into pass/fail checks. They are
attack *probes*, not load generators: one connection each, so scenarios
stay deterministic and CI-fast.
"""

from __future__ import annotations

import socket
import time
from typing import Optional


def _connect(host: str, port: int, timeout_s: float) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.settimeout(timeout_s)
    return sock


def _drain_response(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes or we time out."""
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except (socket.timeout, OSError):
        pass
    return b"".join(chunks)


def _status_of(response: bytes) -> Optional[int]:
    """The HTTP status code of a raw response, None when unparseable."""
    try:
        head = response.split(b"\r\n", 1)[0].decode("latin-1")
        return int(head.split(" ")[1])
    except (IndexError, ValueError):
        return None


def slow_loris(
    host: str,
    port: int,
    hold_s: float = 5.0,
    drip_interval_s: float = 0.05,
    timeout_s: float = 10.0,
) -> dict:
    """Trickle an unfinished request head; report how the server reacts.

    Sends a valid request line, then drips one header byte per
    ``drip_interval_s`` without ever finishing the head, for at most
    ``hold_s`` seconds. Returns::

        {"cut_off": bool,      # server closed/refused before hold_s ran out
         "elapsed_s": float,   # how long the connection survived
         "status": int|None}   # status the server sent on the way out (408…)

    ``cut_off=False`` after a full ``hold_s`` means the server tolerated
    the loris for the whole window — on a hardened transport with a read
    deadline shorter than ``hold_s``, that is a failed defense.
    """
    started = time.monotonic()
    sock = _connect(host, port, timeout_s)
    cut_off = False
    response = b""
    try:
        sock.sendall(b"POST /sessions HTTP/1.1\r\n")
        drip = b"X-Drip: " + b"a" * 64  # never terminated with CRLFCRLF
        deadline = started + hold_s
        for index in range(len(drip)):
            if time.monotonic() >= deadline:
                break
            try:
                sock.sendall(drip[index : index + 1])
            except OSError:
                cut_off = True  # server already tore the connection down
                break
            time.sleep(drip_interval_s)
        if not cut_off:
            # A read deadline fires while we dawdle: the server either
            # sends a 408 and closes, or just closes. Either counts; a
            # recv that *times out* means the server is still patiently
            # holding our connection — the defense did not fire.
            sock.settimeout(max(0.05, deadline - time.monotonic()) + 1.0)
            try:
                first = sock.recv(4096)
                if first:
                    response = first + _drain_response(sock)
                cut_off = True
            except (socket.timeout, TimeoutError):
                cut_off = False
            except OSError:
                cut_off = True
    finally:
        elapsed = time.monotonic() - started
        try:
            sock.close()
        except OSError:
            pass
    return {
        "cut_off": cut_off,
        "elapsed_s": round(elapsed, 3),
        "status": _status_of(response),
    }


def torn_body(
    host: str,
    port: int,
    path: str = "/sessions",
    declared: int = 512,
    sent: bytes = b'{"db": "aep',
    timeout_s: float = 10.0,
) -> dict:
    """Declare ``declared`` body bytes, send fewer, then half-close.

    Returns ``{"status": int|None, "body": bytes}`` — the transport's
    verdict on the torn request. The server answers 400
    (``incomplete_body``); ``status=None`` means it dropped the
    connection. What must never happen is a 2xx: that would mean a
    truncated body was parsed and applied.
    """
    sock = _connect(host, port, timeout_s)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n"
            "\r\n"
        ).encode("latin-1")
        sock.sendall(head + sent)
        sock.shutdown(socket.SHUT_WR)  # we will never send the rest
        response = _drain_response(sock)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    body = response.split(b"\r\n\r\n", 1)[-1] if response else b""
    return {"status": _status_of(response), "body": body}


def oversized_body(
    host: str,
    port: int,
    path: str = "/sessions",
    declared: int = 1 << 40,
    timeout_s: float = 10.0,
) -> dict:
    """Declare a terabyte body and send none of it.

    Returns ``{"status": int|None, "elapsed_s": float}``. A capped
    transport answers 413 immediately — ``elapsed_s`` near zero proves
    the refusal happened before any read of the (nonexistent) body.
    """
    started = time.monotonic()
    sock = _connect(host, port, timeout_s)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n"
            "\r\n"
        ).encode("latin-1")
        sock.sendall(head)
        response = _drain_response(sock)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return {
        "status": _status_of(response),
        "elapsed_s": round(time.monotonic() - started, 3),
    }
