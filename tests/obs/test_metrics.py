"""Metrics registry: counter math, binned histograms, timers."""

from __future__ import annotations

import statistics
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    LATENCY_BIN_BOUNDS,
    SUMMARY_PERCENTILES,
    Histogram,
    MetricsRegistry,
    find_histogram,
    summarize_histogram,
)


def _histogram_summary(registry: MetricsRegistry, name: str, **labels) -> dict:
    return find_histogram(registry.snapshot()["histograms"], name, labels)


_values = st.lists(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False), min_size=1
)


def _bin(value: float) -> int:
    return bisect_left(LATENCY_BIN_BOUNDS, value)


def _bin_range(index: int) -> tuple[float, float]:
    edges = (0.0, *LATENCY_BIN_BOUNDS, float("inf"))
    return edges[index], edges[index + 1]


def _observed(values) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestPercentile:
    """Worked examples of the binned estimate, :meth:`Histogram.quantile`."""

    def test_interpolated_median(self):
        # 1..100: rank 50 falls in bin (32, 64], which holds 33..64; the
        # estimate lies 18/32 of the way across it.
        assert _observed(range(1, 101)).quantile(0.5) == 50.0
        # Rank 2 of [1, 2, 3, 4] is the 2 alone in bin (1, 2].
        assert _observed([1, 2, 3, 4]).quantile(0.5) == 2.0

    def test_exact_order_statistics(self):
        histogram = _observed([10, 20, 30])
        assert histogram.quantile(0.0) == 10
        assert histogram.quantile(1.0) == 30
        # 20 and 30 share bin (16, 32], whose data covers [16, 30]; rank
        # 1.5 is a quarter of the way through the bin's two values.
        assert histogram.quantile(0.5) == 19.5

    def test_interpolation_between_ranks(self):
        # 1..10: rank 9 is halfway through the 9 and 10 in bin (8, 16],
        # whose data covers [8, 10].
        assert _observed(range(1, 11)).quantile(0.9) == 9.0

    def test_single_value(self):
        assert _observed([7.0]).quantile(0.99) == 7.0


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
        # Rank 2 of 4 is the 2.0 alone in bin (1, 2]: the estimate is the
        # top of the part of that bin the data covers.
        assert entry["p50"] == 2.0

    def test_labelled_histograms_are_independent(self):
        registry = MetricsRegistry()
        registry.observe("latency", 1.0, kind="a")
        registry.observe("latency", 100.0, kind="b")
        a = _histogram_summary(registry, "latency", kind="a")
        b = _histogram_summary(registry, "latency", kind="b")
        assert (a["count"], a["sum"], a["max"]) == (1, 1.0, 1.0)
        assert (b["count"], b["sum"], b["max"]) == (1, 100.0, 100.0)

    def test_summarize_empty_histogram(self):
        summary = summarize_histogram("empty", {}, Histogram())
        assert summary["count"] == 0
        assert summary["min"] == summary["max"] == 0.0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0


class TestBinnedHistogram:
    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_count_sum_min_max_are_exact(self, values):
        histogram = _observed(values)
        assert histogram.count == len(values)
        assert histogram.sum == pytest.approx(sum(values))
        assert histogram.min == min(values)
        assert histogram.max == max(values)
        assert sum(histogram.bins) == len(values)

    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_estimates_lie_in_range_and_in_the_order_statistics_bin(
        self, values
    ):
        histogram = _observed(values)
        # statistics.quantiles wants two points; doubling one keeps its value.
        exact = statistics.quantiles(
            values * 2 if len(values) == 1 else values,
            n=100,
            method="inclusive",
        )
        for q in SUMMARY_PERCENTILES:
            estimate = histogram.quantile(q / 100.0)
            assert min(values) <= estimate <= max(values)
            # The exact quantile interpolates the order statistics either
            # side of it; the estimate lies in the bin of one of them.
            below = max((v for v in values if v <= exact[q - 1]), default=None)
            above = min((v for v in values if v >= exact[q - 1]), default=None)
            bins = {_bin(v) for v in (below, above) if v is not None}
            assert any(
                _bin_range(index)[0] <= estimate <= _bin_range(index)[1]
                for index in bins
            ), (q, estimate, exact[q - 1])

    @given(_values, _values)
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_observing_both_lists(self, left, right):
        merged = _observed(left)
        merged.merge(_observed(right))
        together = _observed(left + right)
        assert merged.bins == together.bins
        assert merged.count == together.count
        assert merged.sum == pytest.approx(together.sum)
        assert (merged.min, merged.max) == (together.min, together.max)
        for q in SUMMARY_PERCENTILES:
            assert merged.quantile(q / 100.0) == pytest.approx(
                together.quantile(q / 100.0)
            )

    @pytest.mark.parametrize("value", [0.0, 0.1, 4.0, 10.0, 1e7])
    def test_constant_series_reports_its_own_value(self, value):
        histogram = _observed([value] * 10)
        for q in SUMMARY_PERCENTILES:
            assert histogram.quantile(q / 100.0) == value


class TestTimer:
    def test_timer_records_elapsed_ms(self, fake_clock):
        registry = MetricsRegistry(clock=fake_clock)
        with registry.timer("op.latency_ms", op="x"):
            fake_clock.advance(0.25)
        summary = _histogram_summary(registry, "op.latency_ms", op="x")
        assert (summary["count"], summary["sum"]) == (1, 250.0)

    def test_timer_records_even_on_exception(self, fake_clock):
        registry = MetricsRegistry(clock=fake_clock)
        with pytest.raises(RuntimeError):
            with registry.timer("op.latency_ms"):
                fake_clock.advance(0.5)
                raise RuntimeError("boom")
        summary = _histogram_summary(registry, "op.latency_ms")
        assert (summary["count"], summary["sum"]) == (1, 500.0)


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
