"""Serve-plane latency snapshot (``BENCH_serve.json``).

Drives a concurrent ask/feedback workload through the in-process serve
surface (per-tenant resilience stacks + shared completion cache), then
persists client-side latency percentiles per route alongside the
telemetry hub's own windowed view of the same traffic — the cross-check
that the dashboard numbers describe reality. Scrape costs for ``/metrics`` and
``/statusz`` are timed too: the observability plane must stay cheap
enough to poll every couple of seconds.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path

from repro.core import DemonstrationRetriever
from repro.datasets import build_aep_database, generate_aep_suite
from repro.llm.dispatch import CompletionCache
from repro.serve import CatalogEntry, ServeApp, ServeClient

SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

N_THREADS = 8
SESSIONS_PER_THREAD = 4
QUESTION = "How many audiences were created in January?"
FEEDBACK = "we are in 2024"
SCRAPE_ROUNDS = 50


def _percentiles(samples_ms: list) -> dict:
    # Inclusive quantiles interpolate between order statistics (numpy's
    # default method); cut points 49, 94 and 98 are q 50, 95 and 99.
    cuts = (
        statistics.quantiles(samples_ms, n=100, method="inclusive")
        if len(samples_ms) > 1
        else [max(samples_ms, default=0.0)] * 99
    )
    return {
        "count": len(samples_ms),
        "p50_ms": round(cuts[49], 3),
        "p95_ms": round(cuts[94], 3),
        "p99_ms": round(cuts[98], 3),
        "max_ms": round(max(samples_ms, default=0.0), 3),
    }


def test_bench_serve_snapshot():
    database = build_aep_database()
    _traffic, demos = generate_aep_suite(n_questions=10)
    catalog = {"aep": CatalogEntry(database, DemonstrationRetriever(demos))}
    app = ServeApp(catalog, cache=CompletionCache())
    client = ServeClient.in_process(app)

    samples: dict = {"ask": [], "feedback": []}
    lock = threading.Lock()
    failures: list = []

    def timed(route: str, method: str, path: str, payload: dict) -> None:
        started = time.perf_counter()
        status, _body = client.request_raw(method, path, payload)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if status != 200:
            failures.append((route, status))
            return
        with lock:
            samples[route].append(elapsed_ms)

    def worker(worker_id: int) -> None:
        tenant = f"team-{worker_id % 4}"
        for _ in range(SESSIONS_PER_THREAD):
            sid = client.create_session(db="aep", tenant=tenant)["id"]
            timed("ask", "POST", f"/sessions/{sid}/ask", {"question": QUESTION})
            timed(
                "feedback",
                "POST",
                f"/sessions/{sid}/feedback",
                {"feedback": FEEDBACK},
            )

    wall_started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    wall_s = time.perf_counter() - wall_started
    assert not failures, failures

    total_turns = N_THREADS * SESSIONS_PER_THREAD
    assert len(samples["ask"]) == total_turns
    assert len(samples["feedback"]) == total_turns

    # The telemetry hub saw the same traffic the clients timed.
    telemetry = app.telemetry.snapshot()
    hub_ask = telemetry["routes"]["ask"]["15m"]
    hub_feedback = telemetry["routes"]["feedback"]["15m"]
    assert hub_ask["count"] == total_turns
    assert hub_feedback["count"] == total_turns
    assert hub_ask["p95_ms"] > 0.0

    scrape_ms: dict = {}
    for name, call in (
        ("metrics", client.metrics),
        ("statusz", client.statusz),
    ):
        started = time.perf_counter()
        for _ in range(SCRAPE_ROUNDS):
            call()
        scrape_ms[name] = round(
            (time.perf_counter() - started) * 1000.0 / SCRAPE_ROUNDS, 4
        )

    client_latency = {
        route: _percentiles(values) for route, values in samples.items()
    }
    # The client p50 is the sample median, and lies within one doubling bin
    # of the hub's estimate for the route.
    for route, hub in (("ask", hub_ask), ("feedback", hub_feedback)):
        client_p50 = client_latency[route]["p50_ms"]
        assert client_p50 == round(statistics.median(samples[route]), 3)
        assert hub["p50_ms"] / 2 <= client_p50 <= hub["p50_ms"] * 2, (
            route,
            client_p50,
            hub["p50_ms"],
        )

    document = {
        "benchmark": "serve",
        "threads": N_THREADS,
        "sessions": total_turns,
        "wall_s": round(wall_s, 3),
        "turns_per_s": round(2 * total_turns / wall_s, 2),
        "client_latency": client_latency,
        "telemetry_latency": {
            "ask": {
                "count": hub_ask["count"],
                "p50_ms": hub_ask["p50_ms"],
                "p95_ms": hub_ask["p95_ms"],
                "max_ms": hub_ask["max_ms"],
            },
            "feedback": {
                "count": hub_feedback["count"],
                "p50_ms": hub_feedback["p50_ms"],
                "p95_ms": hub_feedback["p95_ms"],
                "max_ms": hub_feedback["max_ms"],
            },
        },
        "scrape_ms": scrape_ms,
    }
    SNAPSHOT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    reloaded = json.loads(SNAPSHOT_PATH.read_text())
    assert reloaded["telemetry_latency"]["ask"]["count"] == total_turns
