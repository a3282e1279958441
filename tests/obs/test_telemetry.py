"""Windowed telemetry: rolling percentiles, counters, SLO math, the hub."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import (
    RollingCounter,
    RollingHistogram,
    SloPolicy,
    TelemetryHub,
)


class TestRollingHistogram:
    def test_empty_summary_is_all_zero(self, fake_clock):
        histogram = RollingHistogram(clock=fake_clock)
        summary = histogram.summary(60)
        assert summary.count == 0
        assert summary.p50_ms == 0.0
        assert summary.p95_ms == 0.0
        assert summary.max_ms == 0.0
        assert summary.as_dict()["rate_per_s"] == 0.0

    def test_percentiles_track_the_distribution(self, fake_clock):
        histogram = RollingHistogram(clock=fake_clock)
        for _ in range(90):
            histogram.observe(10.0)
        for _ in range(10):
            histogram.observe(100.0)
        summary = histogram.summary(60)
        assert summary.count == 100
        # Bin-interpolated estimates: p50 lands in the bin holding 10 ms,
        # p99 in the bin holding 100 ms; max is exact.
        assert 4.0 <= summary.p50_ms <= 16.0
        assert 64.0 <= summary.p99_ms <= 100.0
        assert summary.max_ms == 100.0
        assert summary.mean_ms == pytest.approx(19.0)

    def test_window_expiry_under_virtual_clock(self, fake_clock):
        histogram = RollingHistogram(
            bucket_seconds=5.0, bucket_count=180, clock=fake_clock
        )
        histogram.observe(50.0)
        assert histogram.summary(60).count == 1

        fake_clock.advance(30)
        assert histogram.summary(60).count == 1  # 30s old: inside 1m
        assert histogram.summary(300).count == 1

        fake_clock.advance(45)  # 75s old now
        assert histogram.summary(60).count == 0  # expired from 1m
        assert histogram.summary(300).count == 1  # still inside 5m

        fake_clock.advance(900)  # far past the 15m span
        assert histogram.summary(900).count == 0

    def test_buckets_recycle_after_a_long_idle_gap(self, fake_clock):
        histogram = RollingHistogram(
            bucket_seconds=1.0, bucket_count=4, clock=fake_clock
        )
        histogram.observe(5.0)
        fake_clock.advance(100)  # many ring revolutions later
        histogram.observe(7.0)
        summary = histogram.summary(4)
        assert summary.count == 1  # the stale bucket was recycled
        assert summary.max_ms == 7.0

    def test_window_clamped_to_ring_span(self, fake_clock):
        histogram = RollingHistogram(
            bucket_seconds=1.0, bucket_count=10, clock=fake_clock
        )
        histogram.observe(1.0)
        summary = histogram.summary(10_000)
        assert summary.window_s == 10.0

    def test_overflow_bin_estimate_capped_at_true_max(self, fake_clock):
        histogram = RollingHistogram(clock=fake_clock)
        huge = 10_000_000.0  # beyond the last bound: the open-ended bin
        histogram.observe(huge)
        summary = histogram.summary(60)
        assert summary.p99_ms <= huge
        assert summary.max_ms == huge

    @pytest.mark.parametrize("value", [0.0, 4.0])
    def test_constant_series_reports_its_own_value(self, fake_clock, value):
        # Each value sits at an edge of its bin, (0, 0.25] or (2, 4], so
        # only an estimate clamped to the observed [min, max] reports it.
        histogram = RollingHistogram(clock=fake_clock)
        for _ in range(10):
            histogram.observe(value)
        summary = histogram.summary(60)
        assert summary.p50_ms == summary.p95_ms == summary.p99_ms == value
        assert summary.max_ms == value

    def test_validation(self, fake_clock):
        with pytest.raises(ValueError):
            RollingHistogram(bucket_seconds=0, clock=fake_clock)
        with pytest.raises(ValueError):
            RollingHistogram(bucket_count=0, clock=fake_clock)


class TestRollingCounter:
    def test_windowed_totals_and_rates(self, fake_clock):
        counter = RollingCounter(clock=fake_clock)
        counter.incr()
        counter.incr(2)
        assert counter.total(60) == 3
        assert counter.rate(60) == pytest.approx(3 / 60)

    def test_totals_expire_with_their_window(self, fake_clock):
        counter = RollingCounter(clock=fake_clock)
        counter.incr(5)
        fake_clock.advance(120)
        assert counter.total(60) == 0
        assert counter.total(300) == 5


class TestSloPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(latency_ms=0)
        with pytest.raises(ValueError):
            SloPolicy(target=1.0)
        with pytest.raises(ValueError):
            SloPolicy(target=0.0)


class TestTelemetryHub:
    def test_slo_attainment_and_burn_rate(self, fake_clock):
        hub = TelemetryHub(
            clock=fake_clock, slo=SloPolicy(latency_ms=100.0, target=0.9)
        )
        for _ in range(8):
            hub.record_request("ask", "team-a", 200, 50.0)  # good
        hub.record_request("ask", "team-a", 200, 500.0)  # too slow
        hub.record_request("ask", "team-a", 500, 10.0)  # 5xx

        snapshot = hub.snapshot()
        slo = snapshot["tenants"]["team-a"]["slo"]
        assert slo["objective_ms"] == 100.0
        assert slo["target"] == 0.9
        window = slo["1m"]
        assert window["total"] == 10
        assert window["good"] == 8
        assert window["attainment"] == pytest.approx(0.8)
        # Burning budget at twice the rate the 90% target allows.
        assert window["burn_rate"] == pytest.approx(2.0)

    def test_rates_and_counters(self, fake_clock):
        hub = TelemetryHub(clock=fake_clock)
        hub.record_request("ask", None, 200, 10.0)
        hub.record_request("ask", None, 500, 10.0)
        hub.record_request("ask", None, 429, 10.0)
        hub.record_request("healthz", None, 503, 1.0)
        hub.record_cache(True)
        hub.record_cache(True)
        hub.record_cache(False)

        snapshot = hub.snapshot()
        assert set(snapshot["routes"]) == {"ask", "healthz"}
        counters = snapshot["counters"]
        assert counters["requests"]["1m"]["total"] == 4
        assert counters["errors"]["1m"]["total"] == 2  # 500 + 503
        assert counters["shed"]["1m"]["total"] == 2  # 429 + 503
        rates = snapshot["rates"]["1m"]
        assert rates["error_rate"] == pytest.approx(0.5)
        assert rates["shed_rate"] == pytest.approx(0.5)
        assert rates["cache_hit_rate"] == pytest.approx(2 / 3)

    def test_tenant_latency_windows_in_snapshot(self, fake_clock):
        hub = TelemetryHub(clock=fake_clock)
        hub.record_request("ask", "team-a", 200, 40.0)
        snapshot = hub.snapshot()
        latency = snapshot["tenants"]["team-a"]["latency"]
        assert set(latency) == {"1m", "5m", "15m"}
        assert latency["1m"]["count"] == 1
        assert latency["1m"]["max_ms"] == 40.0

    def test_attainment_is_one_with_no_traffic(self, fake_clock):
        hub = TelemetryHub(clock=fake_clock)
        hub.record_request("ask", "team-a", 200, 1.0)
        fake_clock.advance(3600)  # everything expired
        window = hub.snapshot()["tenants"]["team-a"]["slo"]["1m"]
        assert window["total"] == 0
        assert window["attainment"] == 1.0
        assert window["burn_rate"] == 0.0
