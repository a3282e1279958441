"""Counters and histograms for pipeline metrics.

A :class:`MetricsRegistry` holds named counters and histograms, each keyed
by an optional label set (``count("llm.calls", kind="nl2sql")``).
Histograms retain raw observations so summaries can report exact
percentiles; :func:`percentile` uses linear interpolation between order
statistics, which keeps the math deterministic and testable.

Like the tracer, the registry takes an injectable clock so ``timer()``
durations are deterministic under test, and every mutating path is guarded
by one lock for thread safety.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Optional, Sequence

#: Percentiles included in every histogram summary.
SUMMARY_PERCENTILES = (50, 90, 95, 99)

LabelKey = tuple[tuple[str, object], ...]


def percentile(
    values: Sequence[float], q: float, default: Optional[float] = None
) -> Optional[float]:
    """The q-th percentile (0..100) with linear interpolation.

    An empty input returns ``default`` — ``None`` unless overridden (pass
    ``default=0.0`` for report-style zero-fill) — so callers don't need an
    emptiness guard. An out-of-range ``q`` still raises: that is a caller
    bug, not a data condition.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if not values:
        return default
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    position = (q / 100.0) * (len(data) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return data[lower]
    fraction = position - lower
    return data[lower] + (data[upper] - data[lower]) * fraction


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
        self._histograms: dict[tuple[str, LabelKey], list[float]] = {}

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
            self._histograms.setdefault(key, []).append(float(value))

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

    def counter_by_label(self, name: str, label: str) -> dict:
        """Counter values grouped by one label's value."""
        grouped: dict = {}
        with self._lock:
            items = list(self._counters.items())
        for (counter_name, labels), value in items:
            if counter_name != name:
                continue
            label_value = dict(labels).get(label)
            grouped[label_value] = grouped.get(label_value, 0) + value
        return grouped

    def histogram_values(self, name: str, **labels: object) -> list[float]:
        """Raw observations for one (name, labels) histogram."""
        with self._lock:
            return list(self._histograms.get((name, _label_key(labels)), []))

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
                summarize_histogram(name, dict(labels), values)
                for (name, labels), values in sorted(
                    self._histograms.items(), key=_series_sort_key
                )
            ]
        return {"counters": counters, "histograms": histograms}


def _series_sort_key(item: tuple) -> tuple:
    (name, labels), _value = item
    return (name, tuple((key, str(value)) for key, value in labels))


def summarize_histogram(
    name: str, labels: dict, values: Sequence[float]
) -> dict:
    """Count / sum / min / max / mean / percentile summary of one histogram."""
    total = sum(values)
    summary = {
        "name": name,
        "labels": labels,
        "count": len(values),
        "sum": total,
        "min": min(values) if values else 0.0,
        "max": max(values) if values else 0.0,
        "mean": total / len(values) if values else 0.0,
    }
    for q in SUMMARY_PERCENTILES:
        summary[f"p{q}"] = percentile(values, q, default=0.0)
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
