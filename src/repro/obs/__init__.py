"""``repro.obs`` — zero-dependency observability for the FISQL stack.

A process-global facade over :class:`~repro.obs.tracer.Tracer` (nested,
timed spans) and :class:`~repro.obs.metrics.MetricsRegistry` (counters +
histograms). Disabled by default: every hook returns a shared no-op object
or falls through on a single boolean check, so instrumented hot paths pay
~nothing until :func:`enable` is called (the CLI's ``--metrics`` /
``--trace`` flags do this).

Call-site idioms::

    from repro import obs

    obs.count("llm.calls", kind=prompt.kind)
    with obs.span("correction.round", round=i), obs.timer("llm.latency_ms"):
        ...

``enable()`` installs *fresh* registries (so repeated runs don't bleed into
each other), ``snapshot()`` returns a plain-dict summary for
:func:`repro.obs.reporting.render_run_report`, and ``export_jsonl()``
writes the documented JSONL trace (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.obs.context import (
    current_request_id,
    deterministic_id_factory,
    new_request_id,
    request_context,
)
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    read_trace_jsonl,
    trace_lines,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    NOOP_TIMER,
    Histogram,
    MetricsRegistry,
    find_histogram,
    summarize_histogram,
)
from repro.obs.structured_log import StructuredLog
from repro.obs.telemetry import (
    RollingCounter,
    RollingHistogram,
    SloPolicy,
    TelemetryHub,
)
from repro.obs.trace_summary import summarize_trace, summarize_trace_file
from repro.obs.tracer import (
    DEFAULT_MAX_SPANS,
    NOOP_SPAN,
    ActiveSpan,
    SpanRecord,
    Tracer,
)

__all__ = [
    "ActiveSpan",
    "DEFAULT_MAX_SPANS",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NOOP_TIMER",
    "RollingCounter",
    "RollingHistogram",
    "SloPolicy",
    "SpanRecord",
    "StructuredLog",
    "TRACE_SCHEMA_VERSION",
    "TelemetryHub",
    "Tracer",
    "count",
    "current_request_id",
    "deterministic_id_factory",
    "disable",
    "enable",
    "event",
    "export_jsonl",
    "find_histogram",
    "get_event_log",
    "get_metrics",
    "get_tracer",
    "is_enabled",
    "new_request_id",
    "observe",
    "read_trace_jsonl",
    "request_context",
    "set_event_log",
    "snapshot",
    "span",
    "summarize_histogram",
    "summarize_trace",
    "summarize_trace_file",
    "timer",
    "trace_lines",
    "write_trace_jsonl",
]


class _State:
    """The process-global observability state."""

    __slots__ = ("enabled", "tracer", "metrics", "events")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.events: Optional[StructuredLog] = None


_STATE = _State()


def enable(
    clock: Optional[Callable[[], float]] = None,
    max_spans: int = DEFAULT_MAX_SPANS,
) -> None:
    """Turn instrumentation on with a *fresh* tracer and metrics registry.

    ``max_spans`` caps the span records kept for :func:`export_jsonl`;
    ``0`` keeps none. The span rollup in :func:`snapshot` counts every
    span either way.
    """
    resolved_clock = clock or time.perf_counter
    _STATE.tracer = Tracer(clock=resolved_clock, max_spans=max_spans)
    _STATE.metrics = MetricsRegistry(clock=resolved_clock)
    _STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off; hooks revert to no-ops."""
    _STATE.enabled = False
    _STATE.tracer = None
    _STATE.metrics = None
    if _STATE.events is not None:
        _STATE.events.close()
        _STATE.events = None


def is_enabled() -> bool:
    """Whether instrumentation is currently live."""
    return _STATE.enabled


def get_tracer() -> Optional[Tracer]:
    """The live tracer (None when disabled)."""
    return _STATE.tracer


def get_metrics() -> Optional[MetricsRegistry]:
    """The live metrics registry (None when disabled)."""
    return _STATE.metrics


# -- instrumentation hooks (no-ops when disabled) --------------------------------


def span(name: str, **attributes: object):
    """Open a traced span (``with obs.span("name", key=value):``)."""
    if not _STATE.enabled:
        return NOOP_SPAN
    return _STATE.tracer.span(name, **attributes)


def count(name: str, n: float = 1, **labels: object) -> None:
    """Increment a counter."""
    if _STATE.enabled:
        _STATE.metrics.count(name, n, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record one histogram observation."""
    if _STATE.enabled:
        _STATE.metrics.observe(name, value, **labels)


def timer(name: str, **labels: object):
    """Time a block into a latency histogram (milliseconds)."""
    if not _STATE.enabled:
        return NOOP_TIMER
    return _STATE.metrics.timer(name, **labels)


# -- structured event log --------------------------------------------------------


def set_event_log(log: Optional[StructuredLog]) -> None:
    """Install (or, with None, detach) the structured JSONL event sink.

    Independent of :func:`enable`: the event log is an *operational*
    surface (the serve ``--log-dir`` flag), not a batch-run report, so it
    has its own lifecycle. :func:`disable` closes and detaches it too.
    """
    if _STATE.events is not None and _STATE.events is not log:
        _STATE.events.close()
    _STATE.events = log


def get_event_log() -> Optional[StructuredLog]:
    """The live structured log (None when not installed)."""
    return _STATE.events


def event(name: str, **fields: object) -> None:
    """Emit one structured event (no-op without an installed log).

    The current request id is stamped automatically (see
    :mod:`repro.obs.context`).
    """
    if _STATE.events is not None:
        _STATE.events.event(name, **fields)


# -- run summaries ---------------------------------------------------------------


def snapshot() -> dict:
    """Counters, histogram summaries, and per-span-name rollups as a dict."""
    if not _STATE.enabled:
        return {
            "enabled": False,
            "counters": [],
            "histograms": [],
            "spans": [],
        }
    metrics_snapshot = _STATE.metrics.snapshot()
    return {
        "enabled": True,
        "counters": metrics_snapshot["counters"],
        "histograms": metrics_snapshot["histograms"],
        "spans": _STATE.tracer.aggregate(),
    }


def export_jsonl(path: Union[str, Path]) -> int:
    """Write the JSONL trace for the current run; returns lines written."""
    if not _STATE.enabled:
        raise RuntimeError("observability is disabled; nothing to export")
    return write_trace_jsonl(path, _STATE.tracer, _STATE.metrics)
