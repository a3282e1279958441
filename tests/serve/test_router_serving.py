"""Serving over a backend pool: routing, failover, health surfaces,
Retry-After headers."""

from __future__ import annotations

import pytest

from repro.errors import TransientLLMError
from repro.llm.interface import Completion, Prompt
from repro.llm.router import Backend, BackendPool
from repro.llm.simulated import SimulatedLLM
from repro.resilience import CircuitBreaker, ResilientChatModel, RetryPolicy
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeClientError,
    SessionManager,
    TenantPolicy,
)
from repro.serve.protocol import json_decode, json_encode


class DownModel:
    """Always transiently failing — a dead primary."""

    def complete(self, prompt: Prompt) -> Completion:
        raise TransientLLMError("backend down")


class SwitchableModel:
    """A simulated backend that can be taken down and brought back."""

    def __init__(self) -> None:
        self.down = False
        self.calls = 0
        self._model = SimulatedLLM()

    def complete(self, prompt: Prompt) -> Completion:
        self.calls += 1
        if self.down:
            raise TransientLLMError("backend down")
        return self._model.complete(prompt)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def backend(name, model, clock=None, threshold=5) -> Backend:
    """A backend as ``build_backend_pool`` builds it: the model behind a
    resilient stack (no retries) around the backend's own breaker."""
    now = clock.now if clock is not None else FakeClock().now
    breaker = CircuitBreaker(
        failure_threshold=threshold,
        reset_after_ms=1000.0,
        clock=now,
        name=name,
        labels={"backend": name},
    )
    stack = ResilientChatModel(
        model, retry=RetryPolicy(max_retries=0), breaker=breaker, clock=now
    )
    return Backend(name, stack, breaker)


def make_pool(primary=None, secondary=None, **kwargs) -> BackendPool:
    return BackendPool(
        [
            backend("primary", primary or SimulatedLLM(), **kwargs),
            backend("secondary", secondary or SimulatedLLM(), **kwargs),
        ]
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
        assert pool["primary"].calls_ok > 0
        assert pool["secondary"].calls_ok == 0

    def test_failover_to_secondary_when_primary_down(
        self, aep_catalog, sequential_ids
    ):
        pool = make_pool(primary=DownModel())
        app = make_app(aep_catalog, sequential_ids, pool)
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        answer = client.ask(
            session["id"], "How many audiences are there?"
        )
        assert answer["answer"]["sql"]
        assert pool["primary"].calls_failed > 0
        assert pool["secondary"].calls_ok > 0

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

    def test_an_ejected_primary_is_probed_back_in(
        self, aep_catalog, sequential_ids, enabled_obs
    ):
        # The primary's breaker trips on live traffic; readiness holds
        # while it is open; once its cooldown is over, one round of the
        # background prober sends it one probe, whose success readmits it.
        clock = FakeClock()
        primary = SwitchableModel()
        pool = make_pool(primary=primary, clock=clock, threshold=1)
        app = make_app(aep_catalog, sequential_ids, pool)
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")["id"]
        primary.down = True
        assert client.ask(session, "How many audiences are there?")
        code, _ctype, body, _headers = app.handle_request("GET", "/readyz")
        assert code == 200
        assert json_decode(body)["backends"]["primary"]["healthy"] is False
        text = client.metrics()
        assert 'fisql_llm_backend_healthy{backend="primary"} 0' in text
        # One series, though the run-report counters are on the page too.
        series = 'fisql_llm_backend_ejections_total{backend="primary"}'
        assert text.count(series) == 1
        assert f"{series} 1" in text
        primary.down = False
        calls = primary.calls
        pool.probe_round()  # the cooldown is not over
        assert primary.calls == calls
        clock.t += 1.0
        pool.probe_round()
        assert primary.calls == calls + 1
        entry = client.statusz()["backends"]["primary"]
        assert entry["healthy"] is True
        assert (entry["ejections"], entry["readmissions"]) == (1, 1)
        series = 'fisql_llm_backend_readmissions_total{backend="primary"}'
        assert f"{series} 1" in client.metrics()

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
