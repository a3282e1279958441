"""trace-summary: flame rollup and round drill-down from a saved trace."""

import pytest

from repro.obs.export import read_trace_jsonl, write_trace_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_summary import summarize_trace, summarize_trace_file
from repro.obs.tracer import Tracer


def _synthetic_trace(fake_clock):
    """A small run: two correction rounds nested under an experiment span."""
    tracer = Tracer(clock=fake_clock)
    metrics = MetricsRegistry(clock=fake_clock)
    with tracer.span("experiment.figure2"):
        for round_index, corrected in ((1, False), (2, True)):
            with tracer.span(
                "correction.round", round=round_index, corrected=corrected
            ):
                with tracer.span("llm.complete"):
                    fake_clock.advance(0.010)
                with tracer.span("sql.execute"):
                    fake_clock.advance(0.002)
        metrics.count("feedback.given", feedback_type="descriptive")
        metrics.observe("round.latency_ms", 12.0)
        metrics.observe("round.latency_ms", 2.0)
    return tracer, metrics


class TestSummarizeTrace:
    def test_full_summary_sections(self, fake_clock, tmp_path):
        tracer, metrics = _synthetic_trace(fake_clock)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, tracer, metrics)

        summary = summarize_trace_file(path)
        assert "Trace summary (schema v1)" in summary
        assert "7 spans" in summary
        assert "Flame rollup" in summary
        assert "experiment.figure2" in summary
        # Children are indented under their parent path.
        assert "  correction.round" in summary
        assert "    llm.complete" in summary
        # Round drill-down groups by the round attribute.
        assert "round 1: 1 sessions" in summary
        assert "round 2: 1 sessions" in summary
        assert "1 corrected" in summary
        # Metrics sections are tabulated.
        assert "feedback.given" in summary
        assert "round.latency_ms" in summary

    def test_flame_totals_and_shares(self, fake_clock, tmp_path):
        tracer, metrics = _synthetic_trace(fake_clock)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, tracer, metrics)

        summary = summarize_trace_file(path)
        flame = summary.split("Flame rollup")[1].split("Correction rounds")[0]
        root_line = next(
            line for line in flame.splitlines() if "experiment.figure2" in line
        )
        # The root owns 100% of the wall-clock (24 ms of advances).
        assert "100.0%" in root_line
        assert "24.00" in root_line
        llm_line = next(
            line for line in flame.splitlines() if "llm.complete" in line
        )
        # Two calls of 10 ms each.
        assert "2" in llm_line.split()
        assert "20.00" in llm_line

    def test_orphaned_parent_becomes_root(self):
        # Spans whose parent was dropped by the span cap must still render.
        lines = [
            {"type": "meta", "version": 1, "dropped_spans": 3},
            {
                "type": "span",
                "id": 7,
                "parent": 2,  # never exported
                "name": "llm.complete",
                "start_ms": 0.0,
                "duration_ms": 5.0,
                "attrs": {},
            },
        ]
        summary = summarize_trace(lines)
        assert "llm.complete" in summary
        assert "(3 dropped)" in summary

    def test_empty_trace(self):
        summary = summarize_trace([{"type": "meta", "version": 1}])
        assert "(no spans in trace)" in summary
        assert "(no correction.round spans in trace)" in summary
        assert "(no counters in trace)" in summary
        assert "(no histograms in trace)" in summary

    def test_roundtrip_through_jsonl(self, fake_clock, tmp_path):
        tracer, metrics = _synthetic_trace(fake_clock)
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(path, tracer, metrics)
        lines = read_trace_jsonl(path)
        assert len(lines) == count
        assert summarize_trace(lines) == summarize_trace_file(path)

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed trace line"):
            summarize_trace_file(path)
