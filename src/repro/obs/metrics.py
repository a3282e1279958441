"""Counters and histograms for pipeline metrics.

A :class:`MetricsRegistry` holds named counters and histograms, each keyed
by an optional label set (``count("llm.calls", kind="nl2sql")``). Every
histogram in ``repro.obs`` is a :class:`Histogram`: counts over the fixed
:data:`LATENCY_BIN_BOUNDS` plus an exact count, sum, min and max. A series
stays that size however many values it has seen, and a summary costs
O(bins). Percentiles are estimates, made inside the bin that holds them
(:meth:`Histogram.quantile`).

Like the tracer, the registry takes an injectable clock so ``timer()``
durations are deterministic under test, and every mutating path is guarded
by one lock for thread safety.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Callable, Optional, Sequence

#: Percentiles included in every histogram summary.
SUMMARY_PERCENTILES = (50, 90, 95, 99)

#: Upper bounds of the log-scaled bins every histogram shares (milliseconds
#: for latencies). Doubling from 0.25 to 0.25·2^21 (~8.7 min) keeps an
#: estimate in that range within a factor of two of the value it stands
#: for; the final bin is open-ended.
LATENCY_BIN_BOUNDS: tuple[float, ...] = tuple(
    0.25 * (2.0**i) for i in range(22)
)

#: Bin ``i`` holds the values in ``(_EDGES[i], _EDGES[i + 1]]``.
_EDGES: tuple[float, ...] = (-math.inf, *LATENCY_BIN_BOUNDS, math.inf)

LabelKey = tuple[tuple[str, object], ...]


class Histogram:
    """Bin counts over :data:`LATENCY_BIN_BOUNDS` plus exact count/sum/min/max.

    Unlocked: its owner (the registry, or one slot of a rolling ring)
    guards it.
    """

    __slots__ = ("bins", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.bins = [0] * (len(LATENCY_BIN_BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bins[bisect.bisect_left(LATENCY_BIN_BOUNDS, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        self.bins = [a + b for a, b in zip(self.bins, other.bins)]
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (0..1); 0.0 when empty.

        Finds the bin holding rank ``q × count`` and interpolates across
        the part of it the data covers, ``[max(lower, min), min(upper,
        max)]``. Every estimate therefore lies in ``[min, max]``, and a
        constant series reports its own value.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, n in enumerate(self.bins):
            if n and seen + n >= rank:
                low = max(_EDGES[index], self.min)
                high = min(_EDGES[index + 1], self.max)
                return min(high, low + (high - low) * (rank - seen) / n)
            seen += n
        return self.max


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class _Timer:
    """Context manager that observes its elapsed milliseconds on exit."""

    __slots__ = ("_registry", "_name", "_labels", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._registry._clock()
        return self

    def __exit__(self, *_exc) -> bool:
        elapsed_ms = (self._registry._clock() - self._start) * 1000.0
        self._registry.observe(self._name, elapsed_ms, **self._labels)
        return False


class _NoopTimer:
    """Shared do-nothing timer used when metrics are disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


#: The singleton no-op timer.
NOOP_TIMER = _NoopTimer()


class MetricsRegistry:
    """Thread-safe registry of labelled counters and histograms."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: float = 1, **labels: object) -> None:
        """Increment counter ``name`` (for the given label set) by ``n``."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + n

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into histogram ``name``."""
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe(float(value))

    def timer(self, name: str, **labels: object) -> _Timer:
        """A context manager recording elapsed ms into histogram ``name``."""
        return _Timer(self, name, labels)

    # -- reads ----------------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """The counter's current value (0 when never incremented)."""
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of counter ``name`` across all label sets."""
        with self._lock:
            return sum(
                value
                for (counter_name, _labels), value in self._counters.items()
                if counter_name == name
            )

    # -- snapshot ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """All counters and histogram summaries, sorted by (name, labels).

        Sorted rendering (rather than insertion order) is what keeps
        ``--metrics`` reports byte-identical under concurrency: with
        worker threads, which series gets created first is scheduler
        dependent, but the sorted view is not.
        """
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(
                    self._counters.items(), key=_series_sort_key
                )
            ]
            histograms = [
                summarize_histogram(name, dict(labels), histogram)
                for (name, labels), histogram in sorted(
                    self._histograms.items(), key=_series_sort_key
                )
            ]
        return {"counters": counters, "histograms": histograms}


def _series_sort_key(item: tuple) -> tuple:
    (name, labels), _value = item
    return (name, tuple((key, str(value)) for key, value in labels))


def summarize_histogram(name: str, labels: dict, histogram: Histogram) -> dict:
    """Exact count / sum / min / max / mean, and estimated percentiles."""
    count = histogram.count
    summary = {
        "name": name,
        "labels": labels,
        "count": count,
        "sum": histogram.sum,
        "min": histogram.min if count else 0.0,
        "max": histogram.max if count else 0.0,
        "mean": histogram.sum / count if count else 0.0,
    }
    for q in SUMMARY_PERCENTILES:
        summary[f"p{q}"] = histogram.quantile(q / 100.0)
    return summary


def find_histogram(
    histograms: Sequence[dict], name: str, labels: Optional[dict] = None
) -> Optional[dict]:
    """Locate a histogram summary by name (and, optionally, exact labels)."""
    for entry in histograms:
        if entry["name"] != name:
            continue
        if labels is None or entry["labels"] == labels:
            return entry
    return None
