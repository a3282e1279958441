"""The HTTP surface vs the in-process pipeline, and the concurrent load test.

Two guarantees pinned here:

* **Transport parity** — the same scripted interaction against the same
  app state produces *byte-identical* response bodies over a real socket
  (``ThreadingHTTPServer``) and the in-process transport.
* **Pipeline parity under load** — replaying SPIDER error-set
  interactions through the HTTP surface from ≥8 concurrent client
  threads yields, per session, exactly the bytes the in-process
  :class:`~repro.core.chat.ChatSession` produces, with zero cross-session
  state leakage and a populated ``/metrics`` report (the ISSUE 3
  acceptance criterion).
"""

import http.client
import itertools
import json
import threading
import time

import pytest

from repro import obs
from repro.core.chat import ChatSession
from repro.eval.harness import build_context
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeHTTPServer,
    SessionManager,
    answer_view,
    json_encode,
    start_in_thread,
)
from repro.sql.parser import parse_query

#: Acceptance floor: interactions replayed and concurrent client threads.
MIN_INTERACTIONS = 20
N_THREADS = 8


def _sequential_manager() -> SessionManager:
    counter = itertools.count(1)
    return SessionManager(id_factory=lambda: f"s{next(counter)}")


class TestTransportParity:
    SCRIPT = [
        ("POST", "/sessions", {"db": "aep", "tenant": "parity"}),
        (
            "POST",
            "/sessions/s1/ask",
            {"question": "How many audiences were created in January?"},
        ),
        ("POST", "/sessions/s1/feedback", {"feedback": "we are in 2024"}),
        ("GET", "/sessions/s1/transcript", None),
        ("GET", "/sessions/s1", None),
        ("GET", "/sessions", None),
        ("GET", "/healthz", None),
        ("POST", "/sessions/s1/ask", {"question": 13}),  # type error
        ("POST", "/sessions/missing/ask", {"question": "hi?"}),  # 404
        ("DELETE", "/sessions/s1", None),
    ]

    def test_socket_and_in_process_bytes_match(self, aep_catalog):
        in_process_app = ServeApp(
            aep_catalog, manager=_sequential_manager()
        )
        socket_app = ServeApp(aep_catalog, manager=_sequential_manager())
        server, _thread = start_in_thread(socket_app)
        try:
            in_process = ServeClient.in_process(in_process_app)
            over_http = ServeClient.connect(port=server.port)
            for method, path, payload in self.SCRIPT:
                a_status, a_body = in_process.request_raw(
                    method, path, payload
                )
                b_status, b_body = over_http.request_raw(
                    method, path, payload
                )
                assert a_status == b_status, (method, path)
                assert a_body == b_body, (method, path)
        finally:
            server.shutdown()

    def test_http_content_type_is_json(self, aep_catalog):
        app = ServeApp(aep_catalog, manager=_sequential_manager())
        server, _thread = start_in_thread(app)
        try:
            import http.client

            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/json"
            response.read()
            connection.close()
        finally:
            server.shutdown()


class TestKeepAlive:
    def test_keep_alive_turns_do_not_stall(self, app):
        # The reply head and body leave as two writes. With Nagle's
        # algorithm on, each body waited for the client's delayed ACK:
        # about 44 ms per request, so 20 requests took 0.8 s or more.
        server, _thread = start_in_thread(app)
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        local_ports = set()
        statuses = []

        def send(method: str, path: str, payload=None) -> bytes:
            body = None if payload is None else json.dumps(payload).encode()
            connection.request(method, path, body=body)
            local_ports.add(connection.sock.getsockname()[1])
            response = connection.getresponse()
            data = response.read()
            statuses.append(response.status)
            return data

        try:
            started = time.perf_counter()
            for _ in range(17):
                send("GET", "/healthz")
            created = json.loads(send("POST", "/sessions", {"db": "aep"}))
            session_id = created["session"]["id"]
            send(
                "POST",
                f"/sessions/{session_id}/ask",
                {"question": "How many audiences were created in January?"},
            )
            send("DELETE", f"/sessions/{session_id}")
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
            server.shutdown()
        assert statuses == [200] * 17 + [201, 200, 200]
        assert len(local_ports) == 1  # every request rode one connection
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"


@pytest.fixture(scope="module")
def spider_interactions():
    """SPIDER error-set interactions: (example, feedback-text or None)."""
    context = build_context(scale="small")
    annotator = context.annotator_for("spider")
    interactions = []
    for record in context.error_set("spider"):
        example = record.example
        gold = parse_query(example.gold_sql)
        predicted = parse_query(record.predicted_sql)
        feedback = annotator.give_feedback(
            example_id=example.example_id,
            question=example.question,
            gold=gold,
            predicted=predicted,
            round_index=1,
            use_highlights=False,
        )
        interactions.append(
            (example, feedback.text if feedback is not None else None)
        )
    # The acceptance floor is >= 20 interactions; replay the set as many
    # times as needed (replays land in *separate* sessions, which also
    # cross-checks per-session determinism).
    while len(interactions) < MIN_INTERACTIONS:
        interactions = interactions + interactions
    return context, interactions


class TestSpiderLoad:
    def test_concurrent_replay_matches_in_process(self, spider_interactions):
        context, interactions = spider_interactions
        assert len(interactions) >= MIN_INTERACTIONS

        # In-process reference: a fresh ChatSession per interaction,
        # serialized through the same wire view for byte comparison.
        model = context.spider_assistant_model()
        references = []
        for example, feedback_text in interactions:
            database = context.spider.benchmark.database(example.db_id)
            chat = ChatSession(database, model)
            asked = json_encode(answer_view(chat.ask(example.question)))
            revised = None
            if feedback_text is not None:
                revised = json_encode(
                    answer_view(chat.give_feedback(feedback_text))
                )
            references.append((asked, revised))

        obs.enable()
        try:
            app = ServeApp.from_context(context, manager=_sequential_manager())
            server, _thread = start_in_thread(app)
            try:
                results: dict = {}
                failures: list = []

                def worker(worker_id: int) -> None:
                    client = ServeClient.connect(port=server.port)
                    for index in range(
                        worker_id, len(interactions), N_THREADS
                    ):
                        example, feedback_text = interactions[index]
                        try:
                            session = client.create_session(
                                db=example.db_id,
                                tenant=f"tenant-{worker_id % 4}",
                            )
                            sid = session["id"]
                            _status, ask_raw = client.request_raw(
                                "POST",
                                f"/sessions/{sid}/ask",
                                {"question": example.question},
                            )
                            asked = json_encode(
                                json.loads(ask_raw)["answer"]
                            )
                            revised = None
                            if feedback_text is not None:
                                _status, fb_raw = client.request_raw(
                                    "POST",
                                    f"/sessions/{sid}/feedback",
                                    {"feedback": feedback_text},
                                )
                                revised = json_encode(
                                    json.loads(fb_raw)["answer"]
                                )
                            transcript = client.transcript(sid)
                            results[index] = (sid, asked, revised, transcript)
                        except Exception as error:  # noqa: BLE001
                            failures.append((index, repr(error)))

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(N_THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not failures, failures
                assert len(results) == len(interactions)

                # Per-session outcomes are identical to the in-process
                # pipeline, byte for byte.
                for index, (ref_ask, ref_fb) in enumerate(references):
                    sid, asked, revised, _transcript = results[index]
                    assert asked == ref_ask, f"ask mismatch at {index} ({sid})"
                    assert revised == ref_fb, (
                        f"feedback mismatch at {index} ({sid})"
                    )

                # Zero cross-session leakage: every transcript holds
                # exactly its own conversation.
                seen_ids = set()
                for index, (sid, _a, revised, transcript) in results.items():
                    example, feedback_text = interactions[index]
                    seen_ids.add(sid)
                    turns = transcript["turns"]
                    expected_turns = 2 if feedback_text is None else 4
                    assert len(turns) == expected_turns, (index, sid)
                    assert turns[0]["text"] == example.question
                    if feedback_text is not None:
                        assert turns[2]["text"] == feedback_text
                assert len(seen_ids) == len(interactions)
                assert len(app.manager) == len(interactions)

                # The /metrics exposition is populated with serve traffic.
                metrics = ServeClient.connect(port=server.port).metrics()
                assert "fisql_serve_up 1" in metrics
                assert "fisql_serve_requests_total" in metrics
                registry = obs.get_metrics()
                expected_requests = (
                    # create + ask + transcript per interaction, feedback
                    # when the annotator produced text, plus the /metrics
                    # scrape itself.
                    3 * len(interactions)
                    + sum(1 for _e, f in interactions if f is not None)
                    + 1
                )
                assert (
                    registry.counter_total("serve.requests")
                    == expected_requests
                )
            finally:
                server.shutdown()
        finally:
            obs.disable()
