"""Span tracer: nesting, deterministic timing, caps, thread isolation."""

from __future__ import annotations

import threading

import pytest

from repro.obs.tracer import NOOP_SPAN, Tracer


class TestSpanNesting:
    def test_parent_links_and_timing(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        with tracer.span("outer", scale="small") as outer:
            fake_clock.advance(0.010)
            with tracer.span("inner") as inner:
                fake_clock.advance(0.005)
        records = {record.name: record for record in tracer.records()}
        assert set(records) == {"outer", "inner"}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id is None
        assert records["inner"].duration_ms == pytest.approx(5.0)
        assert records["outer"].duration_ms == pytest.approx(15.0)
        assert records["outer"].start_ms == pytest.approx(0.0)
        assert records["inner"].start_ms == pytest.approx(10.0)
        assert records["outer"].attributes == {"scale": "small"}

    def test_siblings_share_a_parent(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        children = [r for r in tracer.records() if r.name in ("a", "b")]
        assert all(child.parent_id == root.span_id for child in children)

    def test_set_attribute_on_live_span(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        with tracer.span("work") as span:
            span.set("rows", 3)
        (record,) = tracer.records()
        assert record.attributes == {"rows": 3}

    def test_exception_recorded_and_propagated(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        try:
            with tracer.span("boom"):
                raise RuntimeError("nope")
        except RuntimeError:
            pass
        (record,) = tracer.records()
        assert record.attributes["error"] == "RuntimeError"

    def test_span_ids_are_unique_and_monotonic(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        for _index in range(5):
            with tracer.span("s"):
                pass
        ids = [record.span_id for record in tracer.records()]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5


class TestTracerLimits:
    def test_max_spans_cap_counts_drops(self, fake_clock):
        tracer = Tracer(clock=fake_clock, max_spans=2)
        for _index in range(5):
            with tracer.span("s"):
                fake_clock.advance(0.001)
        assert len(tracer.records()) == 2
        assert tracer.dropped == 3
        # The rollup is kept running, so the cap cannot make it wrong.
        (row,) = tracer.aggregate()
        assert row["count"] == 5
        assert round(row["total_ms"], 6) == 5.0

    def test_zero_cap_keeps_no_records_but_rolls_up(self, fake_clock):
        tracer = Tracer(clock=fake_clock, max_spans=0)
        for _index in range(3):
            with tracer.span("s"):
                fake_clock.advance(0.002)
        assert tracer.records() == []
        assert tracer.dropped == 3
        (row,) = tracer.aggregate()
        assert (row["count"], round(row["max_ms"], 6)) == (3, 2.0)

    def test_aggregate_rolls_up_by_name(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        for duration in (0.001, 0.003):
            with tracer.span("fast"):
                fake_clock.advance(duration)
        with tracer.span("slow"):
            fake_clock.advance(0.1)
        rollup = {row["name"]: row for row in tracer.aggregate()}
        assert rollup["fast"]["count"] == 2
        assert round(rollup["fast"]["total_ms"], 6) == 4.0
        assert round(rollup["fast"]["mean_ms"], 6) == 2.0
        assert round(rollup["slow"]["max_ms"], 6) == 100.0
        # Sorted by total time descending.
        assert [row["name"] for row in tracer.aggregate()] == ["slow", "fast"]

    def test_aggregate_matches_a_rollup_of_the_records(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        durations = [0.004, 0.001, 0.0, 0.25, 0.003, 0.001]
        for index, duration in enumerate(durations):
            with tracer.span("outer" if index % 2 else "inner"):
                with tracer.span("leaf"):
                    fake_clock.advance(duration)
                fake_clock.advance(duration / 2)
        expected: dict = {}
        for record in tracer.records():
            expected.setdefault(record.name, []).append(record.duration_ms)
        rollup = {row["name"]: row for row in tracer.aggregate()}
        assert set(rollup) == set(expected)
        for name, values in expected.items():
            row = rollup[name]
            assert row["count"] == len(values)
            assert row["total_ms"] == sum(values)
            assert row["mean_ms"] == sum(values) / len(values)
            assert row["max_ms"] == max(values)


class TestThreadIsolation:
    def test_threads_get_independent_stacks(self, fake_clock):
        tracer = Tracer(clock=fake_clock)
        results = {}

        def worker():
            with tracer.span("thread-span") as span:
                results["parent"] = span.parent_id

        with tracer.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker's span must not adopt the main thread's open span.
        assert results["parent"] is None

    def test_concurrent_recording_is_lossless(self, fake_clock):
        tracer = Tracer(clock=fake_clock)

        def worker():
            for _index in range(50):
                with tracer.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.records()) == 200
        ids = [record.span_id for record in tracer.records()]
        assert len(set(ids)) == 200


class TestNoopSpan:
    def test_noop_span_is_inert(self):
        with NOOP_SPAN as span:
            assert span.set("k", "v") is NOOP_SPAN
