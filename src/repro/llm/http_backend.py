"""An OpenAI-compatible HTTP chat backend, plus an offline test double.

:class:`HttpChatModel` speaks the ``POST {base}/chat/completions`` wire
protocol over stdlib :mod:`http.client` — no third-party SDK, so the
repository stays dependency-free. Transport and protocol failures map
onto the :class:`~repro.errors.LLMError` taxonomy the resilience layer
already understands:

* connection refused / reset / DNS failure  -> ``TransientLLMError``
* local exhaustion (ENOSPC/EMFILE/ENOMEM)   -> ``LLMError`` (not retried)
* socket timeout                            -> ``LLMTimeoutError``
* HTTP 429 (``Retry-After`` honored)        -> ``RateLimitError``
* HTTP 5xx (``Retry-After`` honored on 503) -> ``TransientLLMError``
* other HTTP 4xx                            -> ``LLMError`` (not retried)
* malformed / truncated response body       -> ``TransientLLMError``

``Retry-After`` seconds ride the error as ``retry_after_ms``, which
:class:`~repro.resilience.ResilientChatModel` uses as that round's
backoff instead of the computed exponential schedule.

:class:`FakeOpenAIServer` is the in-process test double that keeps CI
fully offline: a real socket speaking the same wire format, with
deterministic canned completions and injectable failure modes (forced
status codes, ``Retry-After`` headers, response delays). It also runs
standalone (``python -m repro.llm.http_backend --port N``) so smoke
tests can kill and restart a backend process mid-run.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.errors import (
    LLMError,
    LLMTimeoutError,
    RateLimitError,
    TransientLLMError,
)
from repro.llm.interface import ChatModel, Completion, Prompt

#: Default wire-protocol model name (the paper's backend).
DEFAULT_MODEL = "gpt-3.5-turbo"

#: OSErrors that mean *this host* is exhausted, not that the backend
#: hiccupped: out of disk, out of file descriptors (process or system),
#: out of memory. Retrying cannot help — the retry needs the same
#: resource — and hammering a suffocating host makes the exhaustion
#: worse, so these map to fatal ``LLMError`` instead of transient.
_LOCAL_EXHAUSTION_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EMFILE, errno.ENFILE, errno.ENOMEM}
)


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """``Retry-After`` header seconds -> milliseconds (None when absent
    or malformed; HTTP-date form is not supported — treat as absent)."""
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    if seconds < 0:
        return None
    return seconds * 1000.0


class HttpChatModel:
    """A :class:`ChatModel` over an OpenAI-compatible chat-completions API.

    The prompt's rendered ``text`` is sent as a single user message; the
    first choice's message content comes back as the completion text.
    One connection per call keeps the client thread-safe to share.
    """

    def __init__(
        self,
        base_url: str,
        model: str = DEFAULT_MODEL,
        api_key: Optional[str] = None,
        timeout_s: float = 30.0,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0: {timeout_s}")
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"base_url must be http(s)://host[:port][/prefix]: "
                f"{base_url!r}"
            )
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._prefix = parts.path.rstrip("/")
        self._model = model
        self._api_key = api_key
        self._timeout_s = timeout_s

    @property
    def base_url(self) -> str:
        return f"{self._scheme}://{self._host}:{self._port}{self._prefix}"

    @property
    def model(self) -> str:
        return self._model

    def _connection(self) -> http.client.HTTPConnection:
        if self._scheme == "https":
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self._timeout_s
            )
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout_s
        )

    def complete(self, prompt: Prompt) -> Completion:
        body = json.dumps(
            {
                "model": self._model,
                "messages": [{"role": "user", "content": prompt.text}],
                "temperature": 0,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        connection = self._connection()
        try:
            connection.request(
                "POST",
                f"{self._prefix}/chat/completions",
                body=body,
                headers=headers,
            )
            response = connection.getresponse()
            status = response.status
            retry_after = parse_retry_after(response.getheader("Retry-After"))
            raw = response.read()
        except socket.timeout as error:
            raise LLMTimeoutError(
                f"backend {self.base_url} did not answer within "
                f"{self._timeout_s}s: {error}"
            ) from error
        except (ConnectionError, OSError, http.client.HTTPException) as error:
            if (
                isinstance(error, OSError)
                and error.errno in _LOCAL_EXHAUSTION_ERRNOS
            ):
                raise LLMError(
                    f"local resource exhaustion reaching {self.base_url}: "
                    f"{type(error).__name__}: {error}"
                ) from error
            raise TransientLLMError(
                f"cannot reach backend {self.base_url}: "
                f"{type(error).__name__}: {error}"
            ) from error
        finally:
            connection.close()
        return self._decode(status, retry_after, raw)

    def _decode(
        self, status: int, retry_after: Optional[float], raw: bytes
    ) -> Completion:
        if status == 429:
            raise RateLimitError(
                f"backend {self.base_url} rate-limited the call (429)",
                retry_after_ms=retry_after,
            )
        if status >= 500:
            raise TransientLLMError(
                f"backend {self.base_url} failed with HTTP {status}",
                retry_after_ms=retry_after,
            )
        if status >= 400:
            raise LLMError(
                f"backend {self.base_url} rejected the call "
                f"(HTTP {status}): {raw[:200]!r}"
            )
        try:
            payload = json.loads(raw.decode("utf-8"))
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as error:
            # A torn body usually means the backend died mid-response;
            # retrying against it (or a sibling) is the right move.
            raise TransientLLMError(
                f"backend {self.base_url} returned a malformed "
                f"chat-completion body: {type(error).__name__}: {error}"
            ) from error
        if not isinstance(content, str):
            raise TransientLLMError(
                f"backend {self.base_url} returned non-text content: "
                f"{type(content).__name__}"
            )
        return Completion(text=content)


# -- offline test double -----------------------------------------------------------


def default_responder(request: dict) -> str:
    """A deterministic canned completion: echo a stable digest of the
    last user message, so two identical requests always answer alike."""
    messages = request.get("messages") or []
    content = ""
    for message in messages:
        if isinstance(message, dict) and message.get("role") == "user":
            content = str(message.get("content", ""))
    digest = hashlib.sha256(content.encode("utf-8")).hexdigest()[:12]
    return f"ok:{digest}"


class _FakeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "fake-openai"

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        server: "ThreadingHTTPServer" = self.server  # type: ignore[assignment]
        fake: "FakeOpenAIServer" = server.fake  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length > 0 else b""
        status, headers, body = fake.respond(self.path, raw)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        pass


class FakeOpenAIServer:
    """An in-process OpenAI-compatible chat-completions server.

    Answers ``POST {*}/chat/completions`` with deterministic canned
    completions (see :func:`default_responder`) and supports failure
    injection for failover tests: :meth:`set_failure` forces a status
    (optionally with a ``Retry-After`` header), :meth:`set_delay` adds
    response latency, and :meth:`stop` kills the listener outright —
    clients then see connection-refused, exactly like a dead backend.
    """

    def __init__(
        self,
        responder: Optional[Callable[[dict], str]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        model: str = DEFAULT_MODEL,
    ) -> None:
        self._responder = responder or default_responder
        self._model = model
        self._lock = threading.Lock()
        self._fail_status: Optional[int] = None
        self._fail_retry_after: Optional[float] = None
        self._delay_s = 0.0
        self.requests = 0
        self._httpd = ThreadingHTTPServer((host, port), _FakeHandler)
        self._httpd.daemon_threads = True
        self._httpd.fake = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        """What to pass as an ``HttpChatModel`` / ``--backend`` base URL."""
        return f"http://{self.host}:{self.port}/v1"

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "FakeOpenAIServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="fake-openai",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        """Stop listening and close the socket (connection-refused after)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "FakeOpenAIServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- failure injection ----------------------------------------------------

    def set_failure(
        self,
        status: Optional[int] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        """Force every response to ``status`` (None restores success)."""
        with self._lock:
            self._fail_status = status
            self._fail_retry_after = retry_after_s

    def set_delay(self, seconds: float) -> None:
        with self._lock:
            self._delay_s = max(0.0, seconds)

    # -- request handling -----------------------------------------------------

    def respond(self, path: str, raw: bytes) -> Tuple[int, dict, bytes]:
        with self._lock:
            self.requests += 1
            fail_status = self._fail_status
            retry_after = self._fail_retry_after
            delay = self._delay_s
        if delay > 0:
            time.sleep(delay)
        if not path.endswith("/chat/completions"):
            return 404, {}, b'{"error": {"message": "no such route"}}'
        if fail_status is not None:
            headers = {}
            if retry_after is not None:
                headers["Retry-After"] = str(retry_after)
            body = json.dumps(
                {"error": {"message": f"injected failure {fail_status}"}}
            ).encode("utf-8")
            return fail_status, headers, body
        try:
            request = json.loads(raw.decode("utf-8"))
        except ValueError:
            return 400, {}, b'{"error": {"message": "malformed JSON body"}}'
        text = self._responder(request)
        body = json.dumps(
            {
                "id": f"chatcmpl-fake-{self.requests}",
                "object": "chat.completion",
                "model": request.get("model", self._model),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": 0,
                    "completion_tokens": 0,
                    "total_tokens": 0,
                },
            }
        ).encode("utf-8")
        return 200, {}, body


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a standalone fake backend (CI failover smoke kills this)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.llm.http_backend",
        description="Offline OpenAI-compatible chat-completions stub.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    args = parser.parse_args(argv)
    server = FakeOpenAIServer(host=args.host, port=args.port)
    print(f"fake-openai listening on {server.base_url}", flush=True)
    try:
        self_thread = server.start()
        while self_thread._thread is not None:  # noqa: SLF001 - own attr
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        try:
            server.stop()
        except Exception:  # noqa: BLE001 - already shutting down
            pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke
    raise SystemExit(main())
