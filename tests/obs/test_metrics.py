"""Metrics registry: counter math, histogram percentiles, timers."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    find_histogram,
    percentile,
    summarize_histogram,
)


class TestPercentile:
    def test_interpolated_median(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile(list(range(1, 101)), 50) == 50.5

    def test_exact_order_statistics(self):
        data = [10, 20, 30]
        assert percentile(data, 0) == 10
        assert percentile(data, 100) == 30
        assert percentile(data, 50) == 20

    def test_interpolation_between_ranks(self):
        assert percentile(list(range(1, 11)), 90) == pytest.approx(9.1)

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_empty_returns_none(self):
        assert percentile([], 50) is None

    def test_empty_returns_default_when_given(self):
        assert percentile([], 95, default=0.0) == 0.0
        assert percentile([], 99, default=-1.0) == -1.0

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestCounters:
    def test_count_accumulates(self):
        registry = MetricsRegistry()
        registry.count("calls")
        registry.count("calls", 2)
        assert registry.counter_value("calls") == 3

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.count("llm.calls", kind="nl2sql")
        registry.count("llm.calls", kind="nl2sql")
        registry.count("llm.calls", kind="routing")
        assert registry.counter_value("llm.calls", kind="nl2sql") == 2
        assert registry.counter_value("llm.calls", kind="routing") == 1
        assert registry.counter_total("llm.calls") == 3
        assert registry.counter_by_label("llm.calls", "kind") == {
            "nl2sql": 2,
            "routing": 1,
        }

    def test_missing_counter_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.counter_value("never") == 0
        assert registry.counter_total("never") == 0


class TestHistograms:
    def test_summary_math(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("latency", value)
        snapshot = registry.snapshot()
        entry = find_histogram(snapshot["histograms"], "latency")
        assert entry["count"] == 4
        assert entry["sum"] == 10.0
        assert entry["min"] == 1.0
        assert entry["max"] == 4.0
        assert entry["mean"] == 2.5
        assert entry["p50"] == 2.5

    def test_labelled_histograms_are_independent(self):
        registry = MetricsRegistry()
        registry.observe("latency", 1.0, kind="a")
        registry.observe("latency", 100.0, kind="b")
        assert registry.histogram_values("latency", kind="a") == [1.0]
        assert registry.histogram_values("latency", kind="b") == [100.0]

    def test_summarize_empty_histogram(self):
        summary = summarize_histogram("empty", {}, [])
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0


class TestTimer:
    def test_timer_records_elapsed_ms(self, fake_clock):
        registry = MetricsRegistry(clock=fake_clock)
        with registry.timer("op.latency_ms", op="x"):
            fake_clock.advance(0.25)
        assert registry.histogram_values("op.latency_ms", op="x") == [250.0]

    def test_timer_records_even_on_exception(self, fake_clock):
        registry = MetricsRegistry(clock=fake_clock)
        with pytest.raises(RuntimeError):
            with registry.timer("op.latency_ms"):
                fake_clock.advance(0.5)
                raise RuntimeError("boom")
        assert registry.histogram_values("op.latency_ms") == [500.0]


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.count("c", kind="k")
        registry.observe("h", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [
            {"name": "c", "labels": {"kind": "k"}, "value": 1}
        ]
        (histogram,) = snapshot["histograms"]
        assert histogram["name"] == "h"
        assert histogram["labels"] == {}
        assert histogram["count"] == 1


class TestSortedSnapshot:
    def test_series_sorted_by_name_then_labels(self):
        registry = MetricsRegistry()
        registry.count("b", kind="z")
        registry.count("b", kind="a")
        registry.count("a")
        names = [
            (entry["name"], entry["labels"])
            for entry in registry.snapshot()["counters"]
        ]
        assert names == [("a", {}), ("b", {"kind": "a"}), ("b", {"kind": "z"})]

    def test_insertion_order_is_irrelevant(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        series = [("m", {"w": 1}), ("m", {"w": 2}), ("k", {})]
        for name, labels in series:
            forward.count(name, **labels)
            forward.observe(f"{name}.ms", 5.0, **labels)
        for name, labels in reversed(series):
            backward.count(name, **labels)
            backward.observe(f"{name}.ms", 5.0, **labels)
        assert forward.snapshot() == backward.snapshot()

    def test_mixed_label_value_types_sortable(self):
        registry = MetricsRegistry()
        registry.count("c", status=200)
        registry.count("c", status="ok")
        registry.count("c", status=True)
        assert len(registry.snapshot()["counters"]) == 3
