"""ServeApp routes: happy paths, structured errors, tenants, drain."""

import itertools
import threading
import time

import pytest

from repro.errors import TransientLLMError
from repro.llm.dispatch import CompletionCache
from repro.llm.interface import KIND_FEEDBACK
from repro.llm.simulated import SimulatedLLM
from repro.resilience import CircuitBreaker, ResilientChatModel, RetryPolicy
from repro.semcache import SemanticAnswerCache
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeClientError,
    SessionManager,
)


@pytest.fixture
def client(app):
    return ServeClient.in_process(app)


class TestHappyPath:
    def test_create_ask_feedback_transcript(self, client):
        session = client.create_session(db="aep", tenant="team-a")
        assert session["db"] == "aep"
        assert session["tenant"] == "team-a"
        assert session["turns"] == 0

        reply = client.ask(
            session["id"], "How many audiences were created in January?"
        )
        assert reply["answer"]["sql"].startswith("SELECT COUNT(*)")
        assert "'2023-01-01'" in reply["answer"]["sql"]
        assert reply["turns"] == 2

        revised = client.feedback(session["id"], "we are in 2024")
        assert "'2024-01-01'" in revised["answer"]["sql"]
        assert revised["turns"] == 4

        transcript = client.transcript(session["id"])
        assert len(transcript["turns"]) == 4
        assert transcript["turns"][0]["role"] == "user"
        assert "we are in 2024" in transcript["transcript"]

    def test_session_info_and_list(self, client):
        session = client.create_session(db="aep")
        assert client.list_sessions() == [session["id"]]
        info = client.session_info(session["id"])
        assert info["id"] == session["id"]

    def test_delete_session(self, client):
        session = client.create_session(db="aep")
        client.delete_session(session["id"])
        assert client.list_sessions() == []
        with pytest.raises(ServeClientError) as excinfo:
            client.ask(session["id"], "anything?")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_session"

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["databases"] == 1
        assert health["sessions"]["resident"] == 0

    def test_metrics_disabled_still_valid_exposition(self, client):
        # Satellite fix: with observability off the page must stay valid
        # Prometheus text (scrapers choke on prose), not a prose note.
        text = client.metrics()
        assert "fisql_serve_up 1" in text
        assert "# TYPE fisql_serve_up gauge" in text
        assert "observability disabled" not in text

    def test_metrics_enabled_exposition(self, client, enabled_obs):
        session = client.create_session(db="aep")
        client.ask(session["id"], "How many audiences are there?")
        text = client.metrics()
        assert "fisql_serve_up 1" in text
        assert "# TYPE fisql_serve_requests_total counter" in text
        assert 'fisql_serve_requests_total{route="ask",status="200"} 1' in text
        assert "# TYPE fisql_serve_latency_ms summary" in text


class TestLoneSurrogate:
    """``"\\ud800"`` in a JSON body parses to a string UTF-8 cannot
    encode; the caches that key or log the question must still answer."""

    @pytest.mark.parametrize(
        "caches",
        [
            lambda tmp_path: {"cache": CompletionCache(max_entries=128)},
            lambda tmp_path: {"semcache": SemanticAnswerCache(tmp_path)},
        ],
        ids=["completion-cache", "semantic-cache-dir"],
    )
    def test_ask_answers_200(self, aep_catalog, tmp_path, caches):
        client = ServeClient.in_process(
            ServeApp(aep_catalog, **caches(tmp_path))
        )
        session = client.create_session(db="aep")
        status, body = client.request_raw(
            "POST",
            f"/sessions/{session['id']}/ask",
            {"question": "How many audiences\ud800 were created in January?"},
        )
        assert status == 200, body


class TestStructuredErrors:
    def test_invalid_json_body(self, app):
        status, _ctype, body = app.handle("POST", "/sessions", b"{oops")
        assert status == 400
        assert b'"invalid_json"' in body

    def test_missing_field(self, app):
        status, _ctype, body = app.handle("POST", "/sessions", b"{}")
        assert status == 400
        assert b'"invalid_request"' in body
        assert b'"db"' in body

    def test_unknown_field(self, client):
        status, body = client.request_raw(
            "POST", "/sessions", {"db": "aep", "nope": 1}
        )
        assert status == 400
        assert b'"invalid_request"' in body

    def test_unknown_database(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.create_session(db="missing-db")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_database"

    def test_unknown_route(self, client):
        status, body = client.request_raw("GET", "/bogus")
        assert status == 404
        assert b'"not_found"' in body

    def test_method_not_allowed(self, client):
        status, body = client.request_raw("DELETE", "/healthz")
        assert status == 405
        assert b'"method_not_allowed"' in body

    def test_feedback_before_ask_conflicts(self, client):
        session = client.create_session(db="aep")
        with pytest.raises(ServeClientError) as excinfo:
            client.feedback(session["id"], "this is wrong")
        assert excinfo.value.status == 409
        assert excinfo.value.code == "no_question"

    def test_capacity_rejection(self, aep_catalog):
        counter = itertools.count(1)
        app = ServeApp(
            aep_catalog,
            manager=SessionManager(
                max_sessions=1, id_factory=lambda: f"s{next(counter)}"
            ),
        )
        client = ServeClient.in_process(app)
        first = client.create_session(db="aep")
        record = app.manager._records[first["id"]]
        with record.lock:  # resident and busy: nothing evictable
            with pytest.raises(ServeClientError) as excinfo:
                client.create_session(db="aep")
        assert excinfo.value.status == 503
        assert excinfo.value.code == "capacity"


class _FailingLLM:
    def complete(self, prompt):
        raise TransientLLMError("synthetic backend outage")


class _FeedbackOutageLLM:
    """SimulatedLLM whose feedback prompts fail while ``down`` is set."""

    def __init__(self):
        self._inner = SimulatedLLM()
        self.down = False

    def complete(self, prompt):
        if self.down and prompt.kind == KIND_FEEDBACK:
            raise TransientLLMError("synthetic feedback outage")
        return self._inner.complete(prompt)


class TestFailedTurn:
    def test_502_feedback_adds_no_turn_and_the_retry_applies_once(
        self, aep_catalog
    ):
        llm = _FeedbackOutageLLM()
        client = ServeClient.in_process(
            ServeApp(aep_catalog, llm_factory=lambda tenant: llm)
        )
        session = client.create_session(db="aep")
        client.ask(session["id"], "How many audiences were created in January?")

        llm.down = True
        with pytest.raises(ServeClientError) as excinfo:
            client.feedback(session["id"], "we are in 2024")
        assert excinfo.value.status == 502
        assert excinfo.value.code == "llm_unavailable"
        assert client.session_info(session["id"])["turns"] == 2

        llm.down = False
        revised = client.feedback(session["id"], "we are in 2024")
        assert revised["turns"] == 4
        assert "'2024-01-01'" in revised["answer"]["sql"]
        turns = client.transcript(session["id"])["turns"]
        assert [turn["role"] for turn in turns] == [
            "user",
            "assistant",
            "user",
            "assistant",
        ]


class TestTenantIsolation:
    def test_one_tenants_breaker_does_not_starve_others(self, aep_catalog):
        def llm_factory(tenant):
            if tenant == "unlucky":
                return ResilientChatModel(
                    _FailingLLM(),
                    retry=RetryPolicy(max_retries=0, base_backoff_ms=0.0),
                    breaker=CircuitBreaker(
                        failure_threshold=1, reset_after_ms=60_000.0
                    ),
                )
            return SimulatedLLM()

        app = ServeApp(aep_catalog, llm_factory=llm_factory)
        client = ServeClient.in_process(app)
        bad = client.create_session(db="aep", tenant="unlucky")
        good = client.create_session(db="aep", tenant="steady")

        # First failing call surfaces as a 502 and trips the breaker...
        with pytest.raises(ServeClientError) as excinfo:
            client.ask(bad["id"], "How many audiences are there?")
        assert excinfo.value.status == 502
        assert excinfo.value.code == "llm_unavailable"

        # ...after which the tenant fails fast with circuit_open.
        with pytest.raises(ServeClientError) as excinfo:
            client.ask(bad["id"], "How many audiences are there?")
        assert excinfo.value.status == 503
        assert excinfo.value.code == "circuit_open"

        # The other tenant is completely unaffected.
        reply = client.ask(good["id"], "How many audiences are there?")
        assert reply["answer"]["sql"].startswith("SELECT")

    def test_tenant_stacks_are_cached(self, app):
        first = app.llm_for_tenant("t1")
        assert app.llm_for_tenant("t1") is first
        assert app.llm_for_tenant("t2") is not first


class TestDrain:
    def test_drain_refuses_new_work_and_finishes_inflight(self, app):
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep")
        record = app.manager._records[session["id"]]

        results = []

        def inflight_ask():
            try:
                reply = client.ask(
                    session["id"], "How many audiences are there?"
                )
                results.append(reply["answer"]["sql"])
            except ServeClientError as error:
                results.append(error)

        # Park an ask on the session lock, then start draining.
        record.lock.acquire()
        thread = threading.Thread(target=inflight_ask)
        thread.start()
        deadline = time.monotonic() + 5.0
        while app._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert app._inflight == 1

        app.begin_drain()
        assert client.healthz()["status"] == "draining"
        with pytest.raises(ServeClientError) as excinfo:
            client.create_session(db="aep")
        assert excinfo.value.status == 503
        assert excinfo.value.code == "draining"

        # The in-flight request is allowed to finish...
        record.lock.release()
        thread.join(timeout=10)
        assert len(results) == 1
        assert isinstance(results[0], str) and results[0].startswith("SELECT")
        # ...and await_idle observes quiescence.
        assert app.await_idle(timeout=5.0) is True

    def test_reads_still_served_while_draining(self, client, app):
        session = client.create_session(db="aep")
        app.begin_drain()
        transcript = client.transcript(session["id"])
        assert transcript["session"]["id"] == session["id"]
        assert client.healthz()["status"] == "draining"
