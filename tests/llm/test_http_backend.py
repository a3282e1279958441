"""HTTP backend tests: error mapping, Retry-After, and the fake server."""

from __future__ import annotations

import errno

import pytest

from repro.errors import LLMError, RateLimitError, TransientLLMError
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
