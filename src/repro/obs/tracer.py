"""Nested span tracing for the FISQL stack.

A :class:`Tracer` records *spans*: named, timed regions of execution with
attributes and parent links. Spans are context managers and nest through a
thread-local stack, so concurrent threads build independent span trees over
one shared (locked) tracer.

Every finished span updates a running count, total and max for its name,
so :meth:`Tracer.aggregate` is exact and costs O(names) however long the
tracer has run. Span records are kept only up to ``max_spans``: a
``--trace`` file needs them, while a run report or a long-lived server
passes ``max_spans=0`` and keeps none.

Timing uses an injectable monotonic clock (``time.perf_counter`` by
default); tests pass a fake clock for deterministic durations. Span starts
are stored as millisecond offsets from the tracer's epoch, so a trace is
reproducible across runs modulo real wall-clock.

When observability is disabled, call sites receive the shared
:data:`NOOP_SPAN` — entering, exiting and ``set()`` all cost a no-op method
call and allocate nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Default cap on retained span records; beyond it spans are counted as
#: dropped instead of stored (they still count in the rollup), bounding
#: memory on paper-scale runs.
DEFAULT_MAX_SPANS = 200_000


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ms: float
    duration_ms: float
    attributes: dict


class _NoopSpan:
    """Shared do-nothing span used when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, _key: str, _value: object) -> "_NoopSpan":
        return self


#: The singleton no-op span.
NOOP_SPAN = _NoopSpan()


class ActiveSpan:
    """A live span; use as a context manager."""

    __slots__ = ("_tracer", "name", "attributes", "span_id", "parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set(self, key: str, value: object) -> "ActiveSpan":
        """Attach (or overwrite) an attribute on the live span."""
        self.attributes[key] = value
        return self

    def __enter__(self) -> "ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = tracer._allocate_id()
        stack.append(self)
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exited out of order; drop up to and incl. self
            del stack[stack.index(self) :]
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        tracer._finish(self, end)
        return False


class _SpanTotals:
    """Running rollup of one span name."""

    __slots__ = ("count", "total_ms", "max_ms")

    def __init__(self) -> None:
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0


class Tracer:
    """Thread-safe span recorder with nesting via a thread-local stack."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._dropped = 0
        self._totals: dict[str, _SpanTotals] = {}
        self._next_id = 0
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, **attributes: object) -> ActiveSpan:
        """Open a span; use ``with tracer.span("name", key=value): ...``."""
        return ActiveSpan(self, name, attributes)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _finish(self, span: ActiveSpan, end: float) -> None:
        duration_ms = (end - span._start) * 1000.0
        with self._lock:
            totals = self._totals.get(span.name)
            if totals is None:
                totals = self._totals[span.name] = _SpanTotals()
            totals.count += 1
            totals.total_ms += duration_ms
            totals.max_ms = max(totals.max_ms, duration_ms)
            if len(self._records) >= self._max_spans:
                self._dropped += 1
                return
            self._records.append(
                SpanRecord(
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    name=span.name,
                    start_ms=(span._start - self._epoch) * 1000.0,
                    duration_ms=duration_ms,
                    attributes=dict(span.attributes),
                )
            )

    # -- inspection ---------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans not kept as records once the ``max_spans`` cap was reached."""
        with self._lock:
            return self._dropped

    def records(self) -> list[SpanRecord]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._records)

    def aggregate(self) -> list[dict]:
        """Per-name rollup of every finished span: count / total / mean /
        max duration (ms), slowest total first."""
        with self._lock:
            rollup = [
                {
                    "name": name,
                    "count": totals.count,
                    "total_ms": totals.total_ms,
                    "mean_ms": totals.total_ms / totals.count,
                    "max_ms": totals.max_ms,
                }
                for name, totals in self._totals.items()
            ]
        rollup.sort(key=lambda row: (-row["total_ms"], row["name"]))
        return rollup
