"""End-to-end: ``fisql-repro … --metrics/--trace`` and the run report."""

from __future__ import annotations

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs.reporting import render_run_report


class TestCliMetrics:
    def test_figure2_small_metrics_emits_report_sections(self, capsys):
        exit_code = cli_main(["figure2", "--scale", "small", "--metrics"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Run report (repro.obs)" in out
        # Section headers print even when the artifact never routes/corrects.
        assert "Routing decision distribution" in out
        assert "Correction rounds" in out
        assert "LLM calls by prompt kind" in out
        assert "SQL parse/execute" in out

    def test_table2_small_metrics_full_report(self, capsys):
        exit_code = cli_main(["table2", "--scale", "small", "--metrics"])
        assert exit_code == 0
        out = capsys.readouterr().out
        # Per-Prompt.kind LLM counts/latency.
        assert "nl2sql_feedback" in out
        assert "feedback_routing" in out
        assert "Mean ms" in out
        # Routing decision distribution with a total row.
        assert "Routing decision distribution" in out
        assert "total" in out
        # Per-round correction counts.
        assert "Rounds run" in out
        assert "Corrected" in out
        assert "sessions:" in out
        # SQL parse/execute totals.
        assert "parse:" in out and "failures" in out
        assert "execute:" in out

    def test_no_flags_prints_no_report_and_stays_disabled(self, capsys):
        exit_code = cli_main(["figure2", "--scale", "small"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Run report" not in out
        assert "[obs]" not in out
        assert not obs.is_enabled()

    def test_obs_disabled_after_instrumented_run(self, capsys):
        cli_main(["figure2", "--scale", "small", "--metrics"])
        capsys.readouterr()
        assert not obs.is_enabled()


class TestCliTrace:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        exit_code = cli_main(
            ["table2", "--scale", "small", "--trace", str(trace_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "[obs] wrote" in out
        lines = obs.read_trace_jsonl(trace_path)
        assert lines, "trace must not be empty"
        assert lines[0]["type"] == "meta"
        spans = [line for line in lines if line["type"] == "span"]
        assert spans, "trace must contain spans"
        for span in spans:
            assert "start_ms" in span
            assert "duration_ms" in span
            assert "parent" in span
            assert span["duration_ms"] >= 0.0
        roots = [span for span in spans if span["parent"] is None]
        assert roots, "at least one root span"
        counters = [line for line in lines if line["type"] == "counter"]
        assert any(line["name"] == "llm.calls" for line in counters)


class TestTracePreflight:
    """The --trace preflight must not destroy or strand trace files."""

    def _failing_artifacts(self, monkeypatch):
        import repro.cli as cli_module

        def boom(_context):
            raise RuntimeError("mid-run failure")

        runner, renderer = cli_module._ARTIFACTS["figure2"]
        monkeypatch.setitem(cli_module._ARTIFACTS, "figure2", (boom, renderer))

    def test_existing_trace_preserved_when_run_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text('{"type": "meta"}\n', encoding="utf-8")
        self._failing_artifacts(monkeypatch)
        with pytest.raises(RuntimeError):
            cli_main(["figure2", "--scale", "small", "--trace", str(trace_path)])
        assert trace_path.read_text(encoding="utf-8") == '{"type": "meta"}\n'

    def test_no_stub_left_behind_when_run_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        self._failing_artifacts(monkeypatch)
        with pytest.raises(RuntimeError):
            cli_main(["figure2", "--scale", "small", "--trace", str(trace_path)])
        assert not trace_path.exists()

    def test_obs_disabled_even_when_run_fails(self, tmp_path, monkeypatch):
        self._failing_artifacts(monkeypatch)
        with pytest.raises(RuntimeError):
            cli_main(
                ["figure2", "--scale", "small", "--trace",
                 str(tmp_path / "t.jsonl")]
            )
        assert not obs.is_enabled()

    def test_unwritable_trace_path_fails_before_the_run(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                ["figure2", "--scale", "small", "--trace",
                 "/nonexistent-dir/trace.jsonl"]
            )
        assert excinfo.value.code == 2
        assert "cannot write trace file" in capsys.readouterr().err

    def test_existing_trace_overwritten_on_success(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text("old content\n", encoding="utf-8")
        exit_code = cli_main(
            ["figure2", "--scale", "small", "--trace", str(trace_path)]
        )
        assert exit_code == 0
        lines = obs.read_trace_jsonl(trace_path)
        assert lines and lines[0]["type"] == "meta"


class TestRunReportRendering:
    def test_empty_snapshot_renders_placeholders(self):
        report = render_run_report(
            {
                "enabled": True,
                "counters": [],
                "histograms": [],
                "spans": [],
            }
        )
        assert "(no spans recorded)" in report
        assert "(no LLM calls recorded)" in report
        assert "(no routing decisions recorded)" in report
        assert "(no correction sessions recorded)" in report
        assert "(no SQL activity recorded)" in report

    def test_routing_shares_sum_to_100(self):
        snapshot = {
            "enabled": True,
            "counters": [
                {
                    "name": "routing.decisions",
                    "labels": {"decision": "add"},
                    "value": 1,
                },
                {
                    "name": "routing.decisions",
                    "labels": {"decision": "edit"},
                    "value": 3,
                },
            ],
            "histograms": [],
            "spans": [],
        }
        report = render_run_report(snapshot)
        assert "25.0%" in report
        assert "75.0%" in report
        assert "100.0%" in report
