"""A long-lived ``serve`` keeps its observability state a fixed size.

``fisql-repro serve`` runs ``repro.obs`` on every request for the life of
the process, so nothing it keeps may grow with traffic: the tracer keeps
running per-name rollups and no span records, and every histogram is a
fixed set of bins. The soak below drives 400 sessions in process, with
obs enabled the way the serve command enables it, and checks that the
retained state after session 400 is exactly the state after session 100
while the counters keep counting. The last test pins that enablement to
the serve command itself, so the two cannot drift apart.
"""

from __future__ import annotations

import sys

from repro import obs
from repro.cli import main as cli_main
from repro.serve import ServeApp, ServeClient, SessionManager

QUESTION = "How many audiences were created in January?"
FEEDBACK = "we are in 2024"


def _retained_bytes(*roots: object) -> int:
    """Deep size of the containers and objects reachable from ``roots``.

    Numbers are skipped: a count or a sum held in a fixed slot is the same
    state at any value. What remains grows only if a store does.
    """
    seen: set = set()
    stack = list(roots)
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (int, float)):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
        else:
            stack.extend(
                getattr(item, name)
                for name in getattr(type(item), "__slots__", ())
                if hasattr(item, name)
            )
    return total


def _session(client: ServeClient) -> None:
    session_id = client.create_session("aep")["id"]
    client.ask(session_id, QUESTION)
    client.feedback(session_id, FEEDBACK)
    client.delete_session(session_id)


def test_serve_obs_state_stays_bounded(aep_catalog, sequential_ids):
    obs.enable(max_spans=0)  # as ``fisql-repro serve`` does
    try:
        app = ServeApp(
            aep_catalog, manager=SessionManager(id_factory=sequential_ids)
        )
        client = ServeClient.in_process(app)
        tracer, metrics = obs.get_tracer(), obs.get_metrics()
        marks = {}
        for index in range(1, 401):
            _session(client)
            if index in (100, 400):
                marks[index] = {
                    "records": len(tracer.records()),
                    "requests": metrics.counter_total("serve.requests"),
                    "spans": sum(row["count"] for row in tracer.aggregate()),
                    "bytes": _retained_bytes(tracer, metrics, app.telemetry),
                }
    finally:
        obs.disable()
    assert marks[100]["records"] == marks[400]["records"] == 0
    # Four requests per session, and every span still rolled up.
    assert marks[100]["requests"] == 400
    assert marks[400]["requests"] == 1600
    assert marks[100]["spans"] > 0
    assert marks[400]["spans"] == 4 * marks[100]["spans"]
    assert marks[400]["bytes"] == marks[100]["bytes"], marks


def test_serve_command_enables_obs_without_span_records(monkeypatch):
    seen: dict = {}

    def fake_run_server(app, **_kwargs) -> int:
        with obs.span("probe"):
            pass
        seen["enabled"] = obs.is_enabled()
        seen["records"] = obs.get_tracer().records()
        seen["rollup"] = obs.snapshot()["spans"]
        return 0

    monkeypatch.setattr("repro.serve.run_server", fake_run_server)
    assert cli_main(["serve", "--scale", "small", "--port", "0"]) == 0
    assert seen["enabled"]
    assert seen["records"] == []
    assert {row["name"]: row["count"] for row in seen["rollup"]}["probe"] == 1
