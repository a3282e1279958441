"""The telemetry plane, end to end: correlation ids, /statusz, parity.

The centerpiece is the acceptance load test: one caller-supplied
``X-Request-Id`` on ``POST /sessions/{id}/feedback`` must surface on the
serve span, the completion-cache lookup events, the journal record, and
the structured-log line — and nowhere in the response body. Metric labels never carry it: a label per
request would grow ``/metrics`` for the life of the server. The
counterweight is the byte-parity test: a batch run (no serve, no request
context) must produce byte-identical artifacts whether or not an event
log is installed, with no ``request_id`` stamped anywhere.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.core.chat import ChatSession
from repro.core.nl2sql import Nl2SqlModel
from repro.durability.journal import RunJournal
from repro.llm.dispatch import CachingChatModel, CompletionCache
from repro.llm.simulated import SimulatedLLM
from repro.obs.structured_log import StructuredLog
from repro.serve import (
    ServeApp,
    ServeClient,
    SessionManager,
    TenantPolicy,
    answer_view,
    json_encode,
)

QUESTION = "How many audiences were created in January?"
FEEDBACK = "we are in 2024"


def _log_events(log: StructuredLog) -> list:
    events = []
    for path in log.files():
        for line in path.read_text().splitlines():
            if line:
                events.append(json.loads(line))
    return events


class TestRequestIds:
    def _app(self, aep_catalog, sequential_ids) -> ServeApp:
        return ServeApp(
            aep_catalog,
            manager=SessionManager(id_factory=sequential_ids),
            request_id_factory=obs.deterministic_id_factory("auto"),
        )

    def test_minted_when_absent(self, aep_catalog, sequential_ids):
        app = self._app(aep_catalog, sequential_ids)
        _s, _c, _b, headers = app.handle_request("GET", "/healthz")
        assert headers["X-Request-Id"] == "auto-000001"
        _s, _c, _b, headers = app.handle_request("GET", "/healthz")
        assert headers["X-Request-Id"] == "auto-000002"

    def test_supplied_id_is_honored_any_header_casing(
        self, aep_catalog, sequential_ids
    ):
        app = self._app(aep_catalog, sequential_ids)
        _s, _c, _b, headers = app.handle_request(
            "GET", "/healthz", headers={"x-ReQuEsT-iD": "my-id-1"}
        )
        assert headers["X-Request-Id"] == "my-id-1"

    @pytest.mark.parametrize(
        "bad", ["bad id", "with\nnewline", "", "   ", "-leading", "a" * 200]
    )
    def test_malformed_ids_are_replaced(
        self, aep_catalog, sequential_ids, bad
    ):
        app = self._app(aep_catalog, sequential_ids)
        _s, _c, _b, headers = app.handle_request(
            "GET", "/healthz", headers={"X-Request-Id": bad}
        )
        assert headers["X-Request-Id"] == "auto-000001"

    def test_http_transport_carries_the_header_both_ways(
        self, aep_catalog, sequential_ids
    ):
        from repro.serve import start_in_thread

        app = self._app(aep_catalog, sequential_ids)
        server, _thread = start_in_thread(app)
        try:
            client = ServeClient.connect(port=server.port)
            status, _body, headers = client.request_detailed(
                "GET", "/healthz", headers={"X-Request-Id": "over-http-1"}
            )
            assert status == 200
            assert headers.get("X-Request-Id") == "over-http-1"
        finally:
            server.shutdown()


class TestStatusz:
    def test_slo_math_over_the_wire(self, aep_catalog, sequential_ids):
        app = ServeApp(
            aep_catalog,
            manager=SessionManager(id_factory=sequential_ids),
            policy=TenantPolicy(slo_latency_ms=100.0, slo_target=0.9),
        )
        for _ in range(9):
            app.telemetry.record_request("ask", "team-a", 200, 50.0)
        app.telemetry.record_request("ask", "team-a", 200, 500.0)

        payload = ServeClient.in_process(app).statusz()
        assert payload["ready"] is True
        assert payload["draining"] is False
        slo = payload["telemetry"]["tenants"]["team-a"]["slo"]
        assert slo["objective_ms"] == 100.0
        assert slo["target"] == 0.9
        window = slo["1m"]
        assert window["total"] == 10
        assert window["good"] == 9
        assert window["attainment"] == pytest.approx(0.9)
        assert window["burn_rate"] == pytest.approx(1.0)

    def test_statusz_carries_operational_state(self, app):
        client = ServeClient.in_process(app)
        client.create_session(db="aep", tenant="team-a")
        payload = client.statusz()
        assert payload["sessions"]["resident"] == 1
        assert "batch_queue_depth" not in payload
        assert "breakers" in payload
        assert set(payload["telemetry"]["windows"]) == {"1m", "5m", "15m"}

    def test_statusz_reflects_drain(self, app):
        app.begin_drain()
        payload = ServeClient.in_process(app).statusz()
        assert payload["ready"] is False
        assert payload["draining"] is True


class TestReadyz:
    def test_queue_depth_and_gate_utilization(
        self, aep_catalog, sequential_ids
    ):
        app = ServeApp(
            aep_catalog,
            manager=SessionManager(id_factory=sequential_ids),
            policy=TenantPolicy(max_inflight_total=8),
        )
        client = ServeClient.in_process(app)
        status, body = client.request_raw("GET", "/readyz")
        assert status == 200
        payload = json.loads(body)
        assert "batch_queue_depth" not in payload
        gate = payload["gate"]
        assert gate["utilization"] == 0.0
        assert gate["inflight_per_tenant"] == {}

    def test_unbounded_gate_reports_null_utilization(self, app):
        client = ServeClient.in_process(app)
        _status, body = client.request_raw("GET", "/readyz")
        assert json.loads(body)["gate"]["utilization"] is None


class TestMetricsTenantGauges:
    def test_per_tenant_p95_gauge_after_traffic(self, app):
        client = ServeClient.in_process(app)
        session = client.create_session(db="aep", tenant="team-a")
        client.ask(session["id"], QUESTION)
        text = client.metrics()
        assert (
            'fisql_serve_tenant_latency_ms{quantile="0.95",tenant="team-a"'
            ',window="1m"}' in text
        )
        assert (
            'fisql_serve_slo_attainment{tenant="team-a",window="1m"} 1'
            in text
        )
        assert 'fisql_serve_requests_windowed{window="1m"}' in text


class TestBoundedMetrics:
    def test_distinct_asks_add_no_cache_series(self, aep_catalog):
        def cache_series(text: str) -> list:
            return [
                line
                for line in text.splitlines()
                if line.startswith("fisql_cache_")
            ]

        obs.enable()
        try:
            app = ServeApp(aep_catalog, cache=CompletionCache())
            client = ServeClient.in_process(app)
            # Two sessions ask one question: a miss, then a hit, so both
            # counters exist before the count is taken.
            for _ in range(2):
                session = client.create_session(db="aep")
                client.ask(session["id"], QUESTION)
            before = cache_series(client.metrics())
            session = client.create_session(db="aep")
            for year in range(2000, 2050):
                client.ask(
                    session["id"],
                    f"How many audiences were created in January {year}?",
                )
            after = cache_series(client.metrics())
        finally:
            obs.disable()
        assert before
        assert len(after) == len(before)


class TestEndToEndCorrelation:
    """The ISSUE 6 acceptance criterion, in one test."""

    def test_one_request_id_visible_on_every_surface(
        self, aep_catalog, sequential_ids, tmp_path
    ):
        obs.enable()
        log = StructuredLog(tmp_path / "events")
        obs.set_event_log(log)
        journal = RunJournal(tmp_path / "journal")
        try:
            app = ServeApp(
                aep_catalog,
                manager=SessionManager(id_factory=sequential_ids),
                cache=CompletionCache(),
                journal=journal,
                request_id_factory=obs.deterministic_id_factory("auto"),
            )
            client = ServeClient.in_process(app)
            session = client.create_session(db="aep", tenant="team-a")
            sid = session["id"]
            client.ask(sid, QUESTION)

            rid = "load-rid-0042"
            status, body, headers = client.request_detailed(
                "POST",
                f"/sessions/{sid}/feedback",
                {"feedback": FEEDBACK},
                headers={"X-Request-Id": rid},
            )
            assert status == 200
            # The id is echoed in the header and ONLY the header: response
            # bodies are part of the byte-parity contract.
            assert headers["X-Request-Id"] == rid
            assert rid.encode() not in body

            # Surface 1: the serve span carries the id as an attribute.
            spans = [
                record
                for record in obs.get_tracer().records()
                if record.name == "serve.request"
                and record.attributes.get("route") == "feedback"
            ]
            assert spans
            assert spans[-1].attributes["request_id"] == rid
            assert spans[-1].attributes["status"] == 200

            # Surface 3: the journal record for the feedback turn.
            record = journal.get(f"serve.turn/{sid}/4")
            assert record is not None
            assert record["request_id"] == rid
            assert record["value"]["route"] == "feedback"
            assert record["value"]["tenant"] == "team-a"

            # Surface 4: the structured log — the serve.request line and
            # the journal.append line are stamped.
            obs.set_event_log(None)  # flush + close before reading
            events = _log_events(log)

            # Surface 2: the completion-cache lookup events carry the id
            # (the feedback turn's prompts are novel -> misses).
            misses = [
                event
                for event in events
                if event["event"] == "cache.miss"
                and event.get("request_id") == rid
            ]
            assert misses
            served = [
                event
                for event in events
                if event["event"] == "serve.request"
                and event.get("request_id") == rid
            ]
            assert len(served) == 1
            assert served[0]["route"] == "feedback"
            assert served[0]["status"] == 200
            assert served[0]["tenant"] == "team-a"
            appended = [
                event
                for event in events
                if event["event"] == "journal.append"
                and event.get("request_id") == rid
            ]
            assert appended
            assert appended[-1]["key"] == f"serve.turn/{sid}/4"
        finally:
            journal.close()
            obs.disable()

    def test_concurrent_requests_keep_their_own_ids(
        self, aep_catalog, sequential_ids
    ):
        obs.enable()
        try:
            app = ServeApp(
                aep_catalog,
                manager=SessionManager(id_factory=sequential_ids),
            )
            client = ServeClient.in_process(app)
            sessions = [
                client.create_session(db="aep", tenant=f"t{i % 2}")["id"]
                for i in range(8)
            ]
            echoes: dict = {}

            def worker(index: int) -> None:
                _s, _b, headers = client.request_detailed(
                    "POST",
                    f"/sessions/{sessions[index]}/ask",
                    {"question": QUESTION},
                    headers={"X-Request-Id": f"rid-{index}"},
                )
                echoes[index] = headers["X-Request-Id"]

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert echoes == {i: f"rid-{i}" for i in range(8)}

            # Every request's span carries exactly its own id.
            by_rid = {
                record.attributes["request_id"]
                for record in obs.get_tracer().records()
                if record.name == "serve.request"
                and record.attributes.get("route") == "ask"
            }
            assert by_rid == {f"rid-{i}" for i in range(8)}
        finally:
            obs.disable()


class TestBatchRunByteParity:
    """No serve, no request context: telemetry must change nothing."""

    def _batch_run(self, aep_catalog, journal_dir, log_dir=None):
        obs.enable()
        try:
            if log_dir is not None:
                obs.set_event_log(StructuredLog(log_dir))
            journal = RunJournal(journal_dir)
            entry = aep_catalog["aep"]
            llm = CachingChatModel(SimulatedLLM(), CompletionCache())
            model = Nl2SqlModel(llm=llm, retriever=entry.retriever)
            chat = ChatSession(entry.database, model)
            asked = json_encode(answer_view(chat.ask(QUESTION)))
            revised = json_encode(answer_view(chat.give_feedback(FEEDBACK)))
            journal.append("turn/1", "turn", {"answer": asked.decode()})
            journal.append("turn/2", "turn", {"answer": revised.decode()})
            journal.close()
            counters = {
                (
                    counter["name"],
                    tuple(sorted(counter.get("labels", {}).items())),
                ): counter["value"]
                for counter in obs.snapshot()["counters"]
            }
            segments = b"".join(
                path.read_bytes()
                for path in sorted(journal_dir.glob("*.jsonl"))
            )
            return asked, revised, segments, counters
        finally:
            obs.disable()

    def test_artifacts_identical_with_and_without_event_log(
        self, aep_catalog, tmp_path
    ):
        plain = self._batch_run(aep_catalog, tmp_path / "j1")
        logged = self._batch_run(
            aep_catalog, tmp_path / "j2", log_dir=tmp_path / "events"
        )
        assert plain[0] == logged[0]  # ask bytes
        assert plain[1] == logged[1]  # feedback bytes
        assert plain[2] == logged[2]  # journal segment bytes
        assert plain[3] == logged[3]  # metric counters + labels

        # No request context ever existed: nothing is stamped anywhere.
        assert b"request_id" not in plain[2]
        assert all(
            "request_id" not in dict(labels) for _name, labels in plain[3]
        )
        event_lines = (tmp_path / "events" / "events.jsonl").read_text()
        assert "request_id" not in event_lines
