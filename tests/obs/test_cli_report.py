"""End-to-end: ``fisql-repro … --metrics/--trace`` and the run report."""

from __future__ import annotations

import re

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.eval import harness
from repro.obs.reporting import render_run_report
from repro.sql import parser


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

    def test_table2_small_metrics_full_report(self, capsys, monkeypatch):
        # Cold parse and result memos, as in a fresh process: the result
        # memo lives in each database, so the suites are built anew.
        parser._parse_query.cache_clear()
        monkeypatch.setattr(harness, "_CONTEXT_CACHE", {})
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
        # SQL parse/execute totals; the parse memo parses each text once.
        parse = re.search(r"parse: (\d+) calls, (\d+) parsed, (\d+) failures", out)
        assert parse is not None, out
        calls, parsed, _failures = map(int, parse.groups())
        assert 0 < parsed < calls
        # The result memo runs each query once per database state.
        execute = re.search(r"execute: (\d+) calls, (\d+) run, (\d+) failures", out)
        assert execute is not None, out
        calls, run, _failures = map(int, execute.groups())
        assert 0 < run < calls
        # The link memo links each phrase once per schema, and the bound
        # spares most pairs their full score.
        linking = re.search(
            r"linking: (\d+) calls, (\d+) run, (\d+) pairs, (\d+) scored", out
        )
        assert linking is not None, out
        calls, run, pairs, scored = map(int, linking.groups())
        assert 0 < run < calls
        assert 0 < 2 * scored < pairs
        # Equal row lists answer some unordered comparisons without a sort.
        compare = re.search(r"compare: (\d+) calls, (\d+) equal, (\d+) sorted", out)
        assert compare is not None, out
        calls, equal, sorted_ = map(int, compare.groups())
        assert 0 < equal < calls
        assert equal + sorted_ <= calls
        # Set-up writes each table's rows in one bulk write.
        storage = re.search(r"storage: (\d+) rows in (\d+) writes", out)
        assert storage is not None, out
        rows, writes = map(int, storage.groups())
        assert 0 < 10 * writes < rows

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

    def test_parse_line_reports_calls_parsed_and_failures(self):
        counters = {
            "sql.parse.calls": 10,
            "sql.parse.misses": 4,
            "sql.parse.failures": 1,
        }
        report = render_run_report(
            {
                "enabled": True,
                "counters": [
                    {"name": name, "labels": {}, "value": value}
                    for name, value in counters.items()
                ],
                "histograms": [],
                "spans": [],
            }
        )
        assert "parse: 10 calls, 4 parsed, 1 failures" in report

    def test_execute_line_reports_calls_run_and_failures(self):
        counters = {
            "sql.execute.calls": 10,
            "sql.execute.misses": 3,
            "sql.execute.failures": 1,
        }
        report = render_run_report(
            {
                "enabled": True,
                "counters": [
                    {"name": name, "labels": {}, "value": value}
                    for name, value in counters.items()
                ],
                "histograms": [],
                "spans": [],
            }
        )
        assert "execute: 10 calls, 3 run, 1 failures" in report

    def test_compare_line_reports_calls_equal_and_sorted(self):
        counters = {
            "sql.parse.calls": 1,
            "sql.compare.calls": 12,
            "sql.compare.equal": 5,
            "sql.compare.sorted": 4,
        }
        report = render_run_report(
            {
                "enabled": True,
                "counters": [
                    {"name": name, "labels": {}, "value": value}
                    for name, value in counters.items()
                ],
                "histograms": [],
                "spans": [],
            }
        )
        assert "compare: 12 calls, 5 equal, 4 sorted" in report

    def test_storage_line_reports_rows_and_writes(self):
        counters = {"sql.storage.rows": 87, "sql.storage.writes": 3}
        report = render_run_report(
            {
                "enabled": True,
                "counters": [
                    {"name": name, "labels": {}, "value": value}
                    for name, value in counters.items()
                ],
                "histograms": [],
                "spans": [],
            }
        )
        assert "storage: 87 rows in 3 writes" in report

    def test_linking_line_reports_calls_and_runs(self):
        counters = {
            "linking.calls": 12,
            "linking.misses": 5,
            "linking.pairs": 40,
            "linking.scored": 9,
        }
        report = render_run_report(
            {
                "enabled": True,
                "counters": [
                    {"name": name, "labels": {}, "value": value}
                    for name, value in counters.items()
                ],
                "histograms": [],
                "spans": [],
            }
        )
        assert "linking: 12 calls, 5 run, 40 pairs, 9 scored" in report

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
