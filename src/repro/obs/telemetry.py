"""The live telemetry plane: windowed latency percentiles and SLOs.

The batch-run :class:`~repro.obs.metrics.MetricsRegistry` summarizes a
whole run — right for a reproducible report, wrong for a live service
where "p95 over the last minute" matters. This module adds the live half,
on the same bounded :class:`~repro.obs.metrics.Histogram`:

* :class:`RollingHistogram` — a ring of fixed-width time buckets, each one
  histogram. Recording is O(1) under one lock; memory is ``buckets ×
  bins`` numbers regardless of traffic. Summaries merge the buckets inside
  a window (1m/5m/15m) and estimate p50/p95/p99 inside the matched bin;
  count, mean and ``max`` are exact.
* :class:`RollingCounter` — the same ring for event counts (requests,
  errors, sheds, cache hits), giving windowed totals and rates.
* :class:`TelemetryHub` — the per-route / per-tenant registry of the two,
  plus per-tenant SLO accounting against a latency objective: attainment
  (fraction of requests under the objective and not 5xx) and error-budget
  burn rate (1.0 = consuming budget exactly as fast as the target allows).

Every clock is injectable; tests drive the ring with
:class:`~repro.resilience.VirtualClock` and watch windows expire without
sleeping. The hub is owned by :class:`~repro.serve.server.ServeApp` — it
works whether or not the global ``obs`` switch is on, because a live
dashboard must not depend on a batch-run flag.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.metrics import Histogram

#: The windows every surface reports, label -> seconds.
WINDOWS: dict[str, int] = {"1m": 60, "5m": 300, "15m": 900}

#: Ring geometry: 5-second buckets spanning the largest window (15m).
DEFAULT_BUCKET_SECONDS = 5.0
DEFAULT_BUCKET_COUNT = 180


@dataclass(frozen=True)
class WindowSummary:
    """Latency summary of one window of a :class:`RollingHistogram`."""

    window_s: float
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "rate_per_s": round(self.count / self.window_s, 4)
            if self.window_s
            else 0.0,
        }


class _Ring:
    """A ring of fixed-width time buckets, one ``[index, value]`` slot each.

    Writes land in the bucket for "now"; buckets older than the ring span
    are lazily recycled as time advances, so expiry costs nothing when idle
    and O(ring) at worst after a long quiet gap. Subclasses name the empty
    bucket value (``_empty``) and hold ``_lock`` around the ``*_locked``
    helpers.
    """

    _empty: Callable[[], object]

    def __init__(
        self,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError(f"bucket_seconds must be > 0: {bucket_seconds}")
        if bucket_count < 1:
            raise ValueError(f"bucket_count must be >= 1: {bucket_count}")
        self._width = bucket_seconds
        self._clock = clock
        self._lock = threading.Lock()
        # (absolute bucket index, value) pairs, one slot per ring position.
        self._ring: list[list] = [
            [-1, self._empty()] for _ in range(bucket_count)
        ]

    @property
    def span_seconds(self) -> float:
        """The longest window the ring can answer for."""
        return self._width * len(self._ring)

    def _slot_locked(self) -> list:
        """The slot for "now", recycled first if it holds an older bucket."""
        index = int(self._clock() // self._width)
        slot = self._ring[index % len(self._ring)]
        if slot[0] != index:
            slot[0] = index
            slot[1] = self._empty()
        return slot

    def _window_locked(self, window_s: float) -> list:
        """The values of the buckets inside the last ``window_s`` seconds."""
        now = self._clock()
        newest = int(now // self._width)
        oldest = int((now - window_s) // self._width)
        return [
            value for index, value in self._ring if oldest < index <= newest
        ]


class RollingHistogram(_Ring):
    """Windowed latency percentiles: one histogram per ring bucket."""

    _empty = Histogram

    def observe(self, value_ms: float) -> None:
        """Record one latency observation (milliseconds)."""
        value_ms = max(0.0, float(value_ms))
        with self._lock:
            self._slot_locked()[1].observe(value_ms)

    def summary(self, window_s: float) -> WindowSummary:
        """Merge the live buckets inside ``window_s`` and summarize them."""
        window_s = min(window_s, self.span_seconds)
        merged = Histogram()
        with self._lock:
            for histogram in self._window_locked(window_s):
                merged.merge(histogram)
        count = merged.count
        return WindowSummary(
            window_s=window_s,
            count=count,
            mean_ms=(merged.sum / count) if count else 0.0,
            p50_ms=merged.quantile(0.50),
            p95_ms=merged.quantile(0.95),
            p99_ms=merged.quantile(0.99),
            max_ms=merged.max if count else 0.0,
        )


class RollingCounter(_Ring):
    """Windowed event totals over the same ring geometry."""

    _empty = float

    def incr(self, n: float = 1.0) -> None:
        with self._lock:
            self._slot_locked()[1] += n

    def total(self, window_s: float) -> float:
        window_s = min(window_s, self.span_seconds)
        with self._lock:
            return sum(self._window_locked(window_s))

    def rate(self, window_s: float) -> float:
        """Events per second over the window."""
        window_s = min(window_s, self.span_seconds)
        if window_s <= 0:
            return 0.0
        return self.total(window_s) / window_s


@dataclass(frozen=True)
class SloPolicy:
    """A tenant's latency objective: ``target`` of requests under
    ``latency_ms`` (and not 5xx)."""

    latency_ms: float = 500.0
    target: float = 0.95

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError(f"latency_ms must be > 0: {self.latency_ms}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")


class _TenantSlo:
    """Good/total rolling counters for one tenant's SLO."""

    __slots__ = ("good", "total")

    def __init__(self, bucket_seconds: float, bucket_count: int, clock) -> None:
        self.good = RollingCounter(bucket_seconds, bucket_count, clock)
        self.total = RollingCounter(bucket_seconds, bucket_count, clock)


class TelemetryHub:
    """Live per-route / per-tenant latency, rate, and SLO state.

    One hub per server. Series are created on first use; the set of routes
    is fixed by the router and tenants are typically few, so cardinality
    stays small. Reads (:meth:`snapshot`) touch only summaries, never the
    raw ring state of another thread's writer beyond each series' lock.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        slo: Optional[SloPolicy] = None,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
    ) -> None:
        self._clock = clock
        self._slo = slo or SloPolicy()
        self._geometry = (bucket_seconds, bucket_count)
        self._lock = threading.Lock()
        self._route_latency: dict[str, RollingHistogram] = {}
        self._tenant_latency: dict[str, RollingHistogram] = {}
        self._tenant_slo: dict[str, _TenantSlo] = {}
        self._counters: dict[str, RollingCounter] = {}
        self._backend_latency: dict[str, RollingHistogram] = {}
        self._backend_outcomes: dict[tuple[str, str], RollingCounter] = {}

    @property
    def slo(self) -> SloPolicy:
        return self._slo

    # -- series management ----------------------------------------------------

    def _histogram(self, table: dict, key: str) -> RollingHistogram:
        with self._lock:
            series = table.get(key)
            if series is None:
                series = table[key] = RollingHistogram(
                    *self._geometry, clock=self._clock
                )
            return series

    def _counter(self, name: str) -> RollingCounter:
        with self._lock:
            series = self._counters.get(name)
            if series is None:
                series = self._counters[name] = RollingCounter(
                    *self._geometry, clock=self._clock
                )
            return series

    def _slo_series(self, tenant: str) -> _TenantSlo:
        with self._lock:
            series = self._tenant_slo.get(tenant)
            if series is None:
                series = self._tenant_slo[tenant] = _TenantSlo(
                    *self._geometry, clock=self._clock
                )
            return series

    # -- recording ------------------------------------------------------------

    def record_request(
        self,
        route: str,
        tenant: Optional[str],
        status: int,
        duration_ms: float,
    ) -> None:
        """One finished request: latency, outcome, and SLO accounting."""
        self._histogram(self._route_latency, route).observe(duration_ms)
        self._counter("requests").incr()
        if status >= 500:
            self._counter("errors").incr()
        if status in (429, 503):
            self._counter("shed").incr()
        if tenant is not None:
            self._histogram(self._tenant_latency, tenant).observe(duration_ms)
            slo = self._slo_series(tenant)
            slo.total.incr()
            if status < 500 and duration_ms <= self._slo.latency_ms:
                slo.good.incr()

    def record_cache(self, hit: bool) -> None:
        self._counter("cache_hit" if hit else "cache_miss").incr()

    def record_semcache(self, outcome: str) -> None:
        """One semantic-cache classification: ``hit``/``miss``/``bypass``."""
        if outcome in ("hit", "miss", "bypass"):
            self._counter(f"semcache_{outcome}").incr()

    def record_backend(
        self, name: str, outcome: str, duration_ms: float
    ) -> None:
        """One routed-backend outcome (the :class:`BackendPool` hook).

        Successful calls carry a real latency; bookkeeping outcomes
        (failover, rejected) arrive with ``0.0`` and only count.
        """
        with self._lock:
            series = self._backend_outcomes.get((name, outcome))
            if series is None:
                series = self._backend_outcomes[
                    (name, outcome)
                ] = RollingCounter(*self._geometry, clock=self._clock)
        series.incr()
        if outcome == "ok" and duration_ms > 0:
            self._histogram(self._backend_latency, name).observe(duration_ms)

    # -- reads ----------------------------------------------------------------

    def _windowed(self, series: RollingHistogram) -> dict:
        return {
            label: series.summary(seconds).as_dict()
            for label, seconds in WINDOWS.items()
        }

    def _slo_view(self, tenant: str) -> dict:
        series = self._slo_series(tenant)
        policy = self._slo
        view: dict = {
            "objective_ms": policy.latency_ms,
            "target": policy.target,
        }
        budget = 1.0 - policy.target
        for label, seconds in WINDOWS.items():
            total = series.total.total(seconds)
            good = series.good.total(seconds)
            attainment = (good / total) if total else 1.0
            view[label] = {
                "total": int(total),
                "good": int(good),
                "attainment": round(attainment, 6),
                # burn 1.0 = consuming error budget exactly at the rate
                # the target allows; > 1.0 = the SLO is being violated.
                "burn_rate": round((1.0 - attainment) / budget, 4),
            }
        return view

    def snapshot(self) -> dict:
        """The full live view: what ``/statusz`` serves and ``top`` renders."""
        with self._lock:
            routes = sorted(self._route_latency)
            tenants = sorted(
                set(self._tenant_latency) | set(self._tenant_slo)
            )
            counters = sorted(self._counters)
            backends = sorted(
                set(self._backend_latency)
                | {name for name, _ in self._backend_outcomes}
            )
            backend_outcomes = dict(self._backend_outcomes)
        view: dict = {
            "windows": {label: sec for label, sec in WINDOWS.items()},
            "routes": {
                route: self._windowed(
                    self._histogram(self._route_latency, route)
                )
                for route in routes
            },
            "tenants": {
                tenant: {
                    "latency": self._windowed(
                        self._histogram(self._tenant_latency, tenant)
                    ),
                    "slo": self._slo_view(tenant),
                }
                for tenant in tenants
            },
            "counters": {
                name: {
                    label: {
                        "total": self._counter(name).total(seconds),
                        "rate_per_s": round(
                            self._counter(name).rate(seconds), 4
                        ),
                    }
                    for label, seconds in WINDOWS.items()
                }
                for name in counters
            },
        }
        if backends:
            # Only routed serving grows this section; single-model apps
            # keep their snapshot shape (and tests) unchanged.
            view["backends"] = {
                name: {
                    "latency": self._windowed(
                        self._histogram(self._backend_latency, name)
                    ),
                    "outcomes": {
                        outcome: {
                            label: int(series.total(seconds))
                            for label, seconds in WINDOWS.items()
                        }
                        for (series_name, outcome), series in sorted(
                            backend_outcomes.items()
                        )
                        if series_name == name
                    },
                }
                for name in backends
            }
        requests = view["counters"].get("requests")
        hits = view["counters"].get("cache_hit")
        misses = view["counters"].get("cache_miss")
        sem_hits = view["counters"].get("semcache_hit")
        sem_misses = view["counters"].get("semcache_miss")
        sem_bypasses = view["counters"].get("semcache_bypass")
        semcache_seen = bool(sem_hits or sem_misses or sem_bypasses)
        rates: dict = {}
        for label in WINDOWS:
            total = requests[label]["total"] if requests else 0.0
            errors = view["counters"].get("errors")
            shed = view["counters"].get("shed")
            lookups = (hits[label]["total"] if hits else 0.0) + (
                misses[label]["total"] if misses else 0.0
            )
            rates[label] = {
                "error_rate": round(
                    (errors[label]["total"] / total) if errors and total else 0.0, 6
                ),
                "shed_rate": round(
                    (shed[label]["total"] / total) if shed and total else 0.0, 6
                ),
                "cache_hit_rate": round(
                    (hits[label]["total"] / lookups) if hits and lookups else 0.0,
                    6,
                ),
            }
            if semcache_seen:
                # Only semantic-cache-enabled apps grow the rates shape
                # (same contract as the backends section above).
                sem_h = sem_hits[label]["total"] if sem_hits else 0.0
                sem_m = sem_misses[label]["total"] if sem_misses else 0.0
                sem_b = sem_bypasses[label]["total"] if sem_bypasses else 0.0
                answered = sem_h + sem_m
                rounds = answered + sem_b
                rates[label]["semcache_hit_rate"] = round(
                    (sem_h / answered) if answered else 0.0, 6
                )
                rates[label]["semcache_bypass_rate"] = round(
                    (sem_b / rounds) if rounds else 0.0, 6
                )
        view["rates"] = rates
        return view
