"""Serving over a backend pool: routing, failover, health surfaces,
Retry-After headers."""

from __future__ import annotations

import pytest

from repro.errors import TransientLLMError
from repro.llm.interface import Completion, Prompt
from repro.llm.router import Backend, BackendPool
from repro.llm.simulated import SimulatedLLM
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeClientError,
    SessionManager,
    TenantPolicy,
)
from repro.serve.protocol import json_encode


class DownModel:
    """Always transiently failing — a dead primary."""

    def complete(self, prompt: Prompt) -> Completion:
        raise TransientLLMError("backend down")


def make_pool(primary=None, secondary=None, **kwargs) -> BackendPool:
    return BackendPool(
        [
            Backend("primary", primary or SimulatedLLM()),
            Backend("secondary", secondary or SimulatedLLM()),
        ],
        **kwargs,
    )


def make_app(aep_catalog, sequential_ids, pool, **kwargs):
    return ServeApp(
        aep_catalog,
        manager=SessionManager(id_factory=sequential_ids),
        pool=pool,
        **kwargs,
    )


class TestRoutedServing:
    def test_chat_turn_served_through_pool(self, aep_catalog, sequential_ids):
        pool = make_pool()
        app = make_app(aep_catalog, sequential_ids, pool)
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        answer = client.ask(
            session["id"], "How many audiences are there?"
        )
        assert answer["answer"]["sql"]
        assert pool["primary"].health.calls_ok > 0
        assert pool["secondary"].health.calls_ok == 0

    def test_failover_to_secondary_when_primary_down(
        self, aep_catalog, sequential_ids
    ):
        pool = make_pool(primary=DownModel(), eject_after=100)
        app = make_app(aep_catalog, sequential_ids, pool)
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        answer = client.ask(
            session["id"], "How many audiences are there?"
        )
        assert answer["answer"]["sql"]
        assert pool["primary"].health.calls_failed > 0
        assert pool["secondary"].health.calls_ok > 0

    def test_statusz_and_readyz_report_backend_health(
        self, aep_catalog, sequential_ids
    ):
        pool = make_pool()
        app = make_app(aep_catalog, sequential_ids, pool)
        client = ServeClient.in_process(app)
        status = client.statusz()
        assert set(status["backends"]) == {"primary", "secondary"}
        assert status["backends"]["primary"]["healthy"] is True
        assert client.healthz()["status"] == "ok"
        from repro.serve.protocol import json_decode

        code, _ctype, body, _headers = app.handle_request("GET", "/readyz")
        payload = json_decode(body)
        assert code == 200
        assert payload["backends"]["secondary"]["healthy"] is True

    def test_metrics_exposition_has_backend_families(
        self, aep_catalog, sequential_ids
    ):
        pool = make_pool()
        app = make_app(aep_catalog, sequential_ids, pool)
        client = ServeClient.in_process(app)
        text = client.metrics()
        assert 'fisql_llm_backend_healthy{backend="primary"} 1' in text
        assert 'fisql_llm_backend_ejections_total{backend="primary"} 0' in text

    def test_pool_without_backends_keyword_stays_absent(
        self, aep_catalog, sequential_ids
    ):
        app = ServeApp(
            aep_catalog, manager=SessionManager(id_factory=sequential_ids)
        )
        client = ServeClient.in_process(app)
        assert "backends" not in client.statusz()


class TestRetryAfterHeaders:
    def test_shed_carries_retry_after_header(
        self, aep_catalog, sequential_ids
    ):
        app = ServeApp(
            aep_catalog,
            manager=SessionManager(id_factory=sequential_ids),
            policy=TenantPolicy(max_inflight_total=1),
        )
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        with app.gate.admit("elsewhere"):
            with pytest.raises(ServeClientError) as excinfo:
                client.ask(session["id"], "How many audiences are there?")
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 1.0

    def test_deadline_configured_shed_scales_retry_after(
        self, aep_catalog, sequential_ids
    ):
        app = ServeApp(
            aep_catalog,
            manager=SessionManager(id_factory=sequential_ids),
            policy=TenantPolicy(
                max_inflight_total=1, request_deadline_ms=4000.0
            ),
        )
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        with app.gate.admit("elsewhere"):
            with pytest.raises(ServeClientError) as excinfo:
                client.ask(session["id"], "How many audiences are there?")
        assert excinfo.value.retry_after == 4.0

    def test_drain_503_carries_retry_after(self, aep_catalog, sequential_ids):
        app = ServeApp(
            aep_catalog, manager=SessionManager(id_factory=sequential_ids)
        )
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        app.begin_drain()
        status, _ctype, _body, headers = app.handle_request(
            "POST",
            f"/sessions/{session['id']}/ask",
            json_encode({"question": "How many audiences are there?"}),
        )
        assert status == 503
        assert headers.get("Retry-After") == "10"

    def test_success_has_no_retry_after(self, aep_catalog, sequential_ids):
        app = ServeApp(
            aep_catalog, manager=SessionManager(id_factory=sequential_ids)
        )
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        status, _ctype, _body, headers = app.handle_request(
            "POST",
            f"/sessions/{session['id']}/ask",
            json_encode({"question": "How many audiences are there?"}),
        )
        assert status == 200
        assert "Retry-After" not in headers
        assert "X-Request-Id" in headers
