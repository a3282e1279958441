"""Re-render a saved JSONL trace without re-running the experiment.

``fisql-repro trace-summary PATH`` feeds a ``--trace`` export (see
:mod:`repro.obs.export`) through :func:`summarize_trace`:

* **Flame rollup** — spans aggregated by their *path* (the chain of span
  names from the root), rendered as an indented tree with per-path call
  counts, total/mean milliseconds, share of the root's wall-clock, and a
  proportional bar. This is the flame-graph reading of where time went.
* **Correction-round drill-down** — every ``correction.round`` span
  grouped by its round index: how many sessions reached the round, the
  mean round latency, and the per-child-span time breakdown inside it.
* The counter and histogram lines of the trace, tabulated.

Everything is computed from the file alone; no experiment state needed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.obs.export import read_trace_jsonl
from repro.obs.reporting import _ms, _table

#: Width of the proportional share bar in the flame rollup.
_BAR_WIDTH = 24


class _PathNode:
    """Aggregate of every span that shares one name-path from the root."""

    __slots__ = ("name", "count", "total_ms", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_ms = 0.0
        self.children: dict[str, _PathNode] = {}

    def child(self, name: str) -> "_PathNode":
        if name not in self.children:
            self.children[name] = _PathNode(name)
        return self.children[name]


def _build_path_tree(spans: list[dict]) -> _PathNode:
    """Fold the span forest into a path-aggregated tree."""
    by_id = {span["id"]: span for span in spans}
    children: dict[Optional[int], list[dict]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in by_id:
            parent = None  # orphaned by the span cap; treat as a root
        children.setdefault(parent, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: (span["start_ms"], span["id"]))

    root = _PathNode("")

    def visit(span: dict, node: _PathNode) -> None:
        here = node.child(span["name"])
        here.count += 1
        here.total_ms += span["duration_ms"]
        for child in children.get(span["id"], []):
            visit(child, here)

    for span in children.get(None, []):
        visit(span, root)
    return root


def _render_flame(root: _PathNode) -> str:
    base = sum(child.total_ms for child in root.children.values())
    if not root.children:
        return "(no spans in trace)"
    lines = [
        f"{'span path':<44} {'count':>6} {'total ms':>10} "
        f"{'mean ms':>9} {'share':>6}"
    ]

    def visit(node: _PathNode, depth: int) -> None:
        ordered = sorted(
            node.children.values(),
            key=lambda child: (-child.total_ms, child.name),
        )
        for child in ordered:
            share = (child.total_ms / base) if base > 0 else 0.0
            bar = "#" * max(
                1 if child.total_ms > 0 else 0,
                round(share * _BAR_WIDTH),
            )
            label = ("  " * depth) + child.name
            lines.append(
                f"{label:<44} {child.count:>6} {_ms(child.total_ms):>10} "
                f"{_ms(child.total_ms / child.count):>9} "
                f"{100.0 * share:>5.1f}% {bar}"
            )
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def _render_rounds(spans: list[dict]) -> str:
    """Per-round drill-down over ``correction.round`` spans."""
    rounds = [s for s in spans if s["name"] == "correction.round"]
    if not rounds:
        return "(no correction.round spans in trace)"
    children: dict[int, list[dict]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(span)

    by_round: dict[object, list[dict]] = {}
    for span in rounds:
        key = span.get("attrs", {}).get("round", "?")
        by_round.setdefault(key, []).append(span)

    blocks = []
    for key in sorted(by_round, key=str):
        group = by_round[key]
        total = sum(s["duration_ms"] for s in group)
        corrected = sum(
            1 for s in group if s.get("attrs", {}).get("corrected") is True
        )
        blocks.append(
            f"round {key}: {len(group)} sessions, total {_ms(total)} ms, "
            f"mean {_ms(total / len(group))} ms"
            + (f", {corrected} corrected" if corrected else "")
        )
        inner: dict[str, list[float]] = {}
        for span in group:
            for child in children.get(span["id"], []):
                inner.setdefault(child["name"], []).append(
                    child["duration_ms"]
                )
        for name in sorted(inner, key=lambda n: -sum(inner[n])):
            durations = inner[name]
            blocks.append(
                f"  {name:<30} x{len(durations):<5} "
                f"total {_ms(sum(durations)):>9} ms  "
                f"mean {_ms(sum(durations) / len(durations)):>8} ms"
            )
    return "\n".join(blocks)


def _render_counters(counters: list[dict]) -> str:
    if not counters:
        return "(no counters in trace)"
    rows = []
    for entry in sorted(
        counters,
        key=lambda e: (e["name"], sorted(e.get("labels", {}).items())),
    ):
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(entry.get("labels", {}).items())
        )
        rows.append([entry["name"], labels, str(int(entry["value"]))])
    return _table(["counter", "labels", "value"], rows)


def _render_histograms(histograms: list[dict]) -> str:
    if not histograms:
        return "(no histograms in trace)"
    rows = []
    for entry in sorted(
        histograms,
        key=lambda e: (e["name"], sorted(e.get("labels", {}).items())),
    ):
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(entry.get("labels", {}).items())
        )
        rows.append(
            [
                entry["name"],
                labels,
                str(int(entry["count"])),
                _ms(entry["mean"]),
                _ms(entry["p50"]),
                _ms(entry["p95"]),
                _ms(entry["max"]),
            ]
        )
    return _table(
        ["histogram", "labels", "count", "mean", "p50", "p95", "max"], rows
    )


def summarize_trace(lines: list[dict]) -> str:
    """Render trace lines (from :func:`read_trace_jsonl`) as the summary."""
    meta = next((l for l in lines if l.get("type") == "meta"), {})
    spans = [l for l in lines if l.get("type") == "span"]
    counters = [l for l in lines if l.get("type") == "counter"]
    histograms = [l for l in lines if l.get("type") == "histogram"]

    header = (
        f"Trace summary (schema v{meta.get('version', '?')}) — "
        f"{len(spans)} spans ({meta.get('dropped_spans', 0)} dropped), "
        f"{len(counters)} counters, {len(histograms)} histograms"
    )
    sections = [
        header,
        "-- Flame rollup (time by span path) "
        + "-" * 24,
        _render_flame(_build_path_tree(spans)),
        "-- Correction rounds drill-down " + "-" * 28,
        _render_rounds(spans),
        "-- Counters " + "-" * 48,
        _render_counters(counters),
        "-- Histograms " + "-" * 46,
        _render_histograms(histograms),
    ]
    return "\n\n".join(sections)


def summarize_trace_file(path: Union[str, Path]) -> str:
    """Read a ``--trace`` JSONL file and render its summary."""
    return summarize_trace(read_trace_jsonl(path))
