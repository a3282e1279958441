"""HTTP backend tests: error mapping, Retry-After, and the fake server."""

from __future__ import annotations

import errno
import http.client
import importlib
import json
import os
import queue
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro.llm
from repro.errors import LLMError, RateLimitError, TransientLLMError
from repro.llm import http_backend
from repro.llm.http_backend import (
    DEFAULT_MODEL,
    FakeOpenAIServer,
    HttpChatModel,
    default_responder,
    parse_retry_after,
)
from repro.llm.interface import KIND_ROUTING, Prompt


def prompt(text: str = "hello") -> Prompt:
    return Prompt(kind=KIND_ROUTING, text=text, payload={"feedback": text})


class TestParseRetryAfter:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (None, None),
            ("2", 2000.0),
            ("0.5", 500.0),
            (" 3 ", 3000.0),
            ("0", 0.0),
            ("-1", None),
            ("soon", None),
            ("Wed, 21 Oct 2015 07:28:00 GMT", None),
        ],
    )
    def test_parse(self, value, expected):
        assert parse_retry_after(value) == expected


class TestHttpChatModel:
    def test_rejects_malformed_base_url(self):
        with pytest.raises(ValueError):
            HttpChatModel("not-a-url")
        with pytest.raises(ValueError):
            HttpChatModel("ftp://host/v1")

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            HttpChatModel("http://127.0.0.1:1/v1", timeout_s=0)

    def test_round_trip_is_deterministic(self):
        with FakeOpenAIServer() as server:
            model = HttpChatModel(server.base_url)
            first = model.complete(prompt("same text"))
            second = model.complete(prompt("same text"))
        assert first.text == second.text
        assert first.text.startswith("ok:")

    def test_429_maps_to_rate_limit_with_retry_after(self):
        with FakeOpenAIServer() as server:
            server.set_failure(429, retry_after_s=0.5)
            model = HttpChatModel(server.base_url)
            with pytest.raises(RateLimitError) as excinfo:
                model.complete(prompt())
        assert excinfo.value.retry_after_ms == 500.0

    def test_503_maps_to_transient_with_retry_after(self):
        with FakeOpenAIServer() as server:
            server.set_failure(503, retry_after_s=2)
            model = HttpChatModel(server.base_url)
            with pytest.raises(TransientLLMError) as excinfo:
                model.complete(prompt())
        assert excinfo.value.retry_after_ms == 2000.0

    def test_4xx_is_fatal_not_transient(self):
        with FakeOpenAIServer() as server:
            server.set_failure(418)
            model = HttpChatModel(server.base_url)
            with pytest.raises(LLMError) as excinfo:
                model.complete(prompt())
        assert not isinstance(excinfo.value, TransientLLMError)

    def test_dead_server_is_transient(self):
        server = FakeOpenAIServer().start()
        url = server.base_url
        server.stop()
        model = HttpChatModel(url, timeout_s=2.0)
        with pytest.raises(TransientLLMError):
            model.complete(prompt())

    def test_malformed_body_is_transient(self):
        def bad_responder(request: dict) -> str:
            return "irrelevant"

        with FakeOpenAIServer(responder=bad_responder) as server:
            # Monkeypatch respond to return garbage JSON bytes.
            original = server.respond

            def torn(path: str, raw: bytes):
                status, headers, _body = original(path, raw)
                return status, headers, b'{"choices": ['

            server.respond = torn  # type: ignore[method-assign]
            model = HttpChatModel(server.base_url)
            with pytest.raises(TransientLLMError):
                model.complete(prompt())

    @pytest.mark.parametrize(
        "code",
        [errno.ENOSPC, errno.EMFILE, errno.ENFILE, errno.ENOMEM],
    )
    def test_local_exhaustion_is_fatal_not_transient(self, code):
        """Out of disk/fds/memory on *this* host: a retry needs the very
        resource that is gone, so the error must not be retried."""
        model = HttpChatModel("http://127.0.0.1:1/v1")

        class Exhausted:
            def request(self, *_args, **_kwargs):
                raise OSError(code, "exhausted")

            def close(self):
                pass

        model._connection = Exhausted  # type: ignore[method-assign]
        with pytest.raises(LLMError) as excinfo:
            model.complete(prompt())
        assert not isinstance(excinfo.value, TransientLLMError)
        assert "local resource exhaustion" in str(excinfo.value)

    def test_other_oserrors_stay_transient(self):
        model = HttpChatModel("http://127.0.0.1:1/v1")

        class Refused:
            def request(self, *_args, **_kwargs):
                raise OSError(errno.ECONNREFUSED, "refused")

            def close(self):
                pass

        model._connection = Refused  # type: ignore[method-assign]
        with pytest.raises(TransientLLMError):
            model.complete(prompt())


class TestFakeOpenAIServer:
    def test_default_responder_digests_last_user_message(self):
        text = default_responder(
            {"messages": [{"role": "user", "content": "abc"}]}
        )
        assert text == default_responder(
            {"messages": [{"role": "user", "content": "abc"}]}
        )
        assert text != default_responder(
            {"messages": [{"role": "user", "content": "xyz"}]}
        )

    def test_unknown_route_is_404(self):
        import http.client
        import json

        with FakeOpenAIServer() as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=5.0
            )
            try:
                connection.request("POST", "/v1/embeddings", body=b"{}")
                response = connection.getresponse()
                assert response.status == 404
                json.loads(response.read())
            finally:
                connection.close()

    def test_request_counter_and_failure_reset(self):
        with FakeOpenAIServer() as server:
            model = HttpChatModel(server.base_url, model=DEFAULT_MODEL)
            server.set_failure(500)
            with pytest.raises(TransientLLMError):
                model.complete(prompt())
            server.set_failure(None)
            model.complete(prompt())
            assert server.requests == 2

    def test_a_dropped_connection_prints_nothing_and_a_handler_error_does(
        self, capsys, monkeypatch
    ):
        handled: queue.Queue = queue.Queue()
        handle_error = http_backend._FakeHTTPServer.handle_error

        def spy(server, request, client_address):
            try:
                handle_error(server, request, client_address)
            finally:
                handled.put(sys.exc_info()[0])

        monkeypatch.setattr(http_backend._FakeHTTPServer, "handle_error", spy)

        def responder(request: dict) -> str:
            if request["messages"][-1]["content"] == "raise":
                raise RuntimeError("the responder failed")
            return default_responder(request)

        def post(connection, content: str) -> None:
            body = json.dumps({"messages": [{"role": "user", "content": content}]})
            connection.request("POST", "/v1/chat/completions", body=body)

        with FakeOpenAIServer(responder=responder) as server:
            kept = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
            post(kept, "hello")
            response = kept.getresponse()
            response.read()
            assert response.status == 200
            # Close with a reset while the server waits for the next request
            # on the kept-alive connection, as a killed client does.
            kept.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            kept.close()
            assert handled.get(timeout=5.0) is ConnectionResetError
            assert capsys.readouterr().err == ""

            failing = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
            try:
                post(failing, "raise")
                with pytest.raises(http.client.RemoteDisconnected):
                    failing.getresponse()
            finally:
                failing.close()
            assert handled.get(timeout=5.0) is RuntimeError
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: the responder failed" in err


class TestStandaloneStub:
    """The stub runs as ``python -m repro.llm.http_backend``, a module
    ``import repro`` no longer imports, so runpy has nothing to warn of."""

    @staticmethod
    def _run(*args: str) -> subprocess.CompletedProcess:
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    def test_module_runs_with_runtime_warnings_as_errors(self):
        result = self._run(
            "-W", "error::RuntimeWarning", "-m", "repro.llm.http_backend", "--help"
        )
        assert result.returncode == 0, result.stderr
        assert "usage: python -m repro.llm.http_backend" in result.stdout

    def test_import_repro_loads_no_transport_router_or_resilience(self):
        result = self._run(
            "-c",
            "import sys, repro; print(sorted(m for m in sys.modules if m in "
            "('http.server', 'repro.llm.http_backend', 'repro.llm.router') "
            "or m.startswith('repro.resilience')))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_lazy_exports_resolve_to_their_modules(self):
        for name, module in repro.llm._LAZY.items():
            assert name in repro.llm.__all__
            assert getattr(repro.llm, name) is getattr(
                importlib.import_module(module), name
            )
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.llm.nope
