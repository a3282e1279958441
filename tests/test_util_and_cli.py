"""Determinism helpers, CLI, and example-script smoke tests."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cli import _build_parser
from repro.cli import main as cli_main
from repro.durability import disarm_fault_points
from repro.serve import ServeClient
from repro.serve.protocol import json_decode
from repro.util import stable_choice, stable_fraction

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rejected(capsys, argv) -> str:
    """Run ``argv``, expect a usage error (exit 2), and return its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


@pytest.fixture
def no_build_context(monkeypatch):
    """Fail the test if a command gets as far as building its context."""

    def refuse(**_kwargs):
        raise AssertionError("build_context ran")

    monkeypatch.setattr("repro.cli.build_context", refuse)


class TestStableFraction:
    def test_deterministic(self):
        assert stable_fraction("a", 1) == stable_fraction("a", 1)

    def test_distinct_inputs_differ(self):
        assert stable_fraction("a") != stable_fraction("b")

    def test_range(self):
        for i in range(200):
            value = stable_fraction("range", i)
            assert 0.0 <= value < 1.0

    def test_roughly_uniform(self):
        values = [stable_fraction("uniform", i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 <= mean <= 0.55
        below = sum(1 for v in values if v < 0.25)
        assert 400 <= below <= 600

    def test_stable_choice(self):
        options = ["x", "y", "z"]
        assert stable_choice(options, "k") == stable_choice(options, "k")
        assert stable_choice(options, "k") in options
        with pytest.raises(ValueError):
            stable_choice([], "k")

    def test_choice_covers_all_options(self):
        options = ["x", "y", "z"]
        seen = {stable_choice(options, i) for i in range(60)}
        assert seen == set(options)


class TestCli:
    def test_figure2_small(self, capsys):
        exit_code = cli_main(["figure2", "--scale", "small"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "SPIDER" in out

    def test_all_small(self, capsys):
        exit_code = cli_main(["all", "--scale", "small"])
        assert exit_code == 0
        out = capsys.readouterr().out
        for marker in ("Figure 2", "Table 2", "Figure 8", "Table 3"):
            assert marker in out

    def test_bad_artifact_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["figure99"])

    def test_chart_bars_carry_the_table_values(self, capsys):
        assert cli_main(["run", "figure2", "--scale", "small"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert cli_main(["run", "figure2", "--scale", "small", "--chart"]) == 0
        chart = capsys.readouterr().out.splitlines()
        # Title, header and rule, then one row per dataset.
        rows = [line.split("|") for line in table[3:] if line]
        measured = {cells[0].strip(): cells[1].strip() for cells in rows}
        bars = [line.split("|") for line in chart[1:] if line]
        charted = {cells[0].strip(): cells[2].strip() for cells in bars}
        assert charted == measured
        assert all("\u2588" in cells[1] for cells in bars)

    def test_explicit_run_subcommand(self, capsys):
        # `fisql-repro run ...` and the bare-artifact alias are the same.
        exit_code = cli_main(["run", "figure2", "--scale", "small"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "SPIDER" in out

    def test_trace_summary_subcommand(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        exit_code = cli_main(
            [
                "run",
                "figure2",
                "--scale",
                "small",
                "--trace",
                str(trace_path),
            ]
        )
        assert exit_code == 0
        assert trace_path.exists()
        capsys.readouterr()

        exit_code = cli_main(["trace-summary", str(trace_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "Flame rollup" in out
        assert "experiment.figure2" in out
        assert "correction.round" in out

    def test_trace_summary_missing_file_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["trace-summary", "/nonexistent/trace.jsonl"])


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "marketing_analytics.py",
        "build_up_queries.py",
        "assistant_chat.py",
        "serve_client.py",
    ],
)
def test_example_scripts_run(script):
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    lines = result.stdout.splitlines()
    # The two examples that run FISQL rounds must keep their answers.
    if script == "quickstart.py":
        assert "[routing] feedback type: edit" in lines
        assert (
            "Revised SQL: SELECT COUNT(*) FROM hkg_dim_segment WHERE "
            "createdtime >= '2024-01-01' AND createdtime < '2024-02-01'"
        ) in lines
    if script == "build_up_queries.py":
        sqls = [line for line in lines if line.startswith("  SQL: ")]
        assert sqls[-1].endswith("ORDER BY segmentname ASC LIMIT 5")


def test_spider_feedback_study_example_runs():
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "examples" / "spider_feedback_study.py"),
            "--scale",
            "small",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert "Table 2" in result.stdout
    assert "Figure 8" in result.stdout


class TestCliDispatchFlags:
    """--workers/--cache-dir keep stdout byte-identical."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_workers_match_sequential_stdout(self, capsys):
        baseline, _ = self._run(capsys, ["run", "figure2", "--scale", "small"])
        parallel, _ = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--workers", "4"],
        )
        assert parallel == baseline

    def test_cache_dir_cold_then_warm(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        baseline, _ = self._run(capsys, ["run", "figure2", "--scale", "small"])
        cold, cold_err = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--cache-dir", cache_dir],
        )
        assert cold == baseline
        assert "[cache]" in cold_err
        assert (tmp_path / "cache" / "completions.json").exists()

        warm, warm_err = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--cache-dir", cache_dir],
        )
        assert warm == baseline
        assert " 0 misses" in warm_err

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "figure2", "--workers", "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure2", "--batch-size", "8"],
            ["serve", "--batch-max", "4"],
            ["serve", "--batch-wait-ms", "5"],
            ["serve", "--batch-max-queue", "4"],
        ],
    )
    def test_batch_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2


class TestCliDurabilityFlags:
    """--journal/--resume/--suite-dir and the cache subcommand."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_journal_cold_then_resume_stdout_identical(
        self, capsys, tmp_path
    ):
        journal_dir = str(tmp_path / "journal")
        baseline, _ = self._run(capsys, ["run", "figure2", "--scale", "small"])
        cold, cold_err = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--journal", journal_dir],
        )
        assert cold == baseline
        assert "[journal]" in cold_err
        assert "0 replayed" in cold_err

        warm, warm_err = self._run(
            capsys,
            [
                "run",
                "figure2",
                "--scale",
                "small",
                "--journal",
                journal_dir,
                "--resume",
            ],
        )
        assert warm == baseline
        assert "0 appended" in warm_err

    def test_nonempty_journal_without_resume_rejected(self, capsys, tmp_path):
        journal_dir = str(tmp_path / "journal")
        self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--journal", journal_dir],
        )
        with pytest.raises(SystemExit):
            cli_main(
                ["run", "figure2", "--scale", "small", "--journal", journal_dir]
            )

    def test_resume_without_journal_rejected(self, capsys):
        err = _rejected(
            capsys, ["run", "figure2", "--scale", "small", "--resume"]
        )
        assert "--resume requires --journal" in err

    def test_suite_dir_warm_start_stdout_identical(self, capsys, tmp_path):
        suite_dir = str(tmp_path / "suites")
        baseline, _ = self._run(capsys, ["run", "figure2", "--scale", "small"])
        cold, _ = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--suite-dir", suite_dir],
        )
        assert cold == baseline
        assert list((tmp_path / "suites").glob("suite-small-*.json"))
        warm, _ = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--suite-dir", suite_dir],
        )
        assert warm == baseline

    def test_full_disk_costs_the_suite_file_not_the_run(
        self, capsys, tmp_path, monkeypatch
    ):
        suite_dir = tmp_path / "suites"
        argv = ["run", "figure2", "--scale", "small"]
        argv += ["--suite-dir", str(suite_dir)]
        baseline, _ = self._run(capsys, argv[:4])
        monkeypatch.setenv("FISQL_CRASH_POINT", "disk.atomic_write:1:enospc")
        try:
            full, _ = self._run(capsys, argv)
            assert full == baseline
            assert not list(suite_dir.glob("*"))
            disarm_fault_points()  # the next run's save is hit 1 again
            report, _ = self._run(capsys, [*argv, "--metrics"])
        finally:
            disarm_fault_points()
        assert not list(suite_dir.glob("*"))
        assert (
            "degraded writes (disk fault, in-memory fallback): 1 (suite=1)"
            in report
        )

    def test_cache_subcommand_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--cache-dir", cache_dir],
        )
        stats_out, _ = self._run(capsys, ["cache", "stats", "--cache-dir", cache_dir])
        assert "entries: " in stats_out
        assert "entries: 0" not in stats_out

        clear_out, _ = self._run(capsys, ["cache", "clear", "--cache-dir", cache_dir])
        assert "cleared" in clear_out

        stats_out, _ = self._run(capsys, ["cache", "stats", "--cache-dir", cache_dir])
        assert "entries: 0" in stats_out

    def test_serve_overload_flag_validation(self, capsys):
        assert "argument --max-inflight: must be >= 1: 0" in _rejected(
            capsys, ["serve", "--max-inflight", "0"]
        )
        assert "argument --max-inflight-per-tenant: must be >= 1: 0" in (
            _rejected(capsys, ["serve", "--max-inflight-per-tenant", "0"])
        )
        assert "argument --request-deadline-ms: must be > 0: 0.0" in _rejected(
            capsys, ["serve", "--request-deadline-ms", "0"]
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--semantic-cache-dir", "semcache"], "requires --semantic-cache"),
            (
                ["--backend", "a=simulated,breaker-threshold=0"],
                "failure_threshold must be >= 1: 0",
            ),
        ],
    )
    def test_serve_flag_error_leaves_nothing_behind(
        self, capsys, tmp_path, flags, message, no_build_context
    ):
        journal = tmp_path / "journal"
        log_dir = tmp_path / "events"
        argv = ["serve", "--journal", str(journal), "--log-dir", str(log_dir)]
        assert message in _rejected(capsys, argv + flags)
        assert not obs.is_enabled()
        assert not journal.exists() and not log_dir.exists()


#: The asks of CI's semcache-smoke job: one canonical question, then three
#: count-intent paraphrases, one from a second tenant on the same schema.
SEMCACHE_ASKS = [
    ("team-a", "How many audiences were created in January?"),
    ("team-a", "Count the audiences created in January"),
    ("team-a", "what is the number of audiences created in january"),
    ("team-b", "What is the total number of audiences created in January?"),
]


class TestCliSemcacheFlags:
    """serve's --semantic-cache wiring, and the stats and replay commands
    over the store a serve leaves behind."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def _serve(self, capsys, monkeypatch, semcache_dir):
        """``serve --semantic-cache --semantic-cache-dir``, its app driven
        in process: the four asks, then a feedback round."""

        def fake_run_server(app, **kwargs) -> int:
            client = ServeClient.in_process(app)
            sessions = {
                tenant: client.create_session(
                    db="experience_platform", tenant=tenant
                )["id"]
                for tenant in ("team-a", "team-b")
            }
            answers = [
                client.ask(sessions[tenant], question)["answer"]["sql"]
                for tenant, question in SEMCACHE_ASKS
            ]
            # Every paraphrase is served the first ask's answer.
            assert answers == answers[:1] * len(SEMCACHE_ASKS)
            client.feedback(sessions["team-a"], "we are in 2024")
            return 0

        monkeypatch.setattr("repro.serve.run_server", fake_run_server)
        self._run(
            capsys,
            [
                "serve", "--scale", "small", "--port", "0",
                "--semantic-cache", "--semantic-cache-dir", semcache_dir,
            ],
        )

    def test_flag_validation(self, capsys, no_build_context):
        assert "unrecognized arguments: --semantic-cache" in _rejected(
            capsys, ["run", "figure2", "--semantic-cache"]
        )
        assert "--semantic-cache-dir requires --semantic-cache" in _rejected(
            capsys, ["serve", "--semantic-cache-dir", "/tmp/x"]
        )
        assert "--semantic-cache-max requires --semantic-cache" in _rejected(
            capsys, ["serve", "--semantic-cache-max", "5"]
        )
        assert "pass --cache-dir and/or --semantic-cache-dir" in _rejected(
            capsys, ["cache", "stats"]
        )

    def test_flag_off_stays_byte_identical(
        self, capsys, monkeypatch, tmp_path
    ):
        """The paper's artifacts never pass through the semantic cache:
        ``run`` prints the same bytes before and after a semantic-cached
        serve in the same process, whose app hosts the run's cached
        context."""
        baseline, _ = self._run(capsys, ["run", "figure2", "--scale", "small"])
        self._serve(capsys, monkeypatch, str(tmp_path / "semcache"))
        after, _ = self._run(capsys, ["run", "figure2", "--scale", "small"])
        assert after == baseline

    def test_cache_subcommand_covers_semantic_store(
        self, capsys, monkeypatch, tmp_path
    ):
        semcache_dir = str(tmp_path / "semcache")
        self._serve(capsys, monkeypatch, semcache_dir)
        stats_out, _ = self._run(
            capsys, ["cache", "stats", "--semantic-cache-dir", semcache_dir]
        )
        assert "semcache" in stats_out
        assert "entries:       1" in stats_out
        assert "hits:          3" in stats_out
        assert "bypasses:      1" in stats_out
        assert "fingerprints:  1" in stats_out

        clear_out, _ = self._run(
            capsys, ["cache", "clear", "--semantic-cache-dir", semcache_dir]
        )
        assert "cleared 1 entries" in clear_out
        stats_out, _ = self._run(
            capsys, ["cache", "stats", "--semantic-cache-dir", semcache_dir]
        )
        assert "entries:       0" in stats_out

    def test_semcache_replay_subcommand(self, capsys, monkeypatch, tmp_path):
        semcache_dir = str(tmp_path / "semcache")
        with pytest.raises(SystemExit):
            cli_main(
                ["semcache", "replay", "--semantic-cache-dir", semcache_dir]
            )
        self._serve(capsys, monkeypatch, semcache_dir)
        out, _ = self._run(
            capsys,
            [
                "semcache", "replay", "--scale", "small",
                "--semantic-cache-dir", semcache_dir,
            ],
        )
        assert "semcache replay" in out
        assert "rounds:        5" in out
        assert "skipped lines: 0" in out
        assert "hits:          4 (100.0% of answerable)" in out
        # The live model answers each paraphrase with a dataset listing,
        # while the cache served the first ask's COUNT: three divergences.
        assert "divergences:   3" in out
        assert out.count("model:    SELECT datasetname FROM hkg_dim_dataset") == 3


class TestCliConcurrencyFlags:
    """The journal subcommand."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_journal_subcommand_stats_and_compact(self, capsys, tmp_path):
        journal_dir = str(tmp_path / "journal")
        suite_dir = str(tmp_path / "suites")
        _, err = self._run(
            capsys,
            ["run", "figure2", "--scale", "small",
             "--journal", journal_dir, "--suite-dir", suite_dir],
        )
        total = re.search(r"(\d+) total records", err).group(1)
        out, _ = self._run(capsys, ["journal", "stats", "--journal", journal_dir])
        assert f"records:       {total}" in out
        assert "segments:      1" in out
        assert "skipped lines: 0" in out

        # There is nothing to compact: the action is gone.
        assert "invalid choice: 'compact'" in _rejected(
            capsys, ["journal", "compact", "--journal", journal_dir]
        )

        resumed, err = self._run(
            capsys,
            ["run", "figure2", "--scale", "small",
             "--journal", journal_dir, "--resume", "--suite-dir", suite_dir],
        )
        baseline, _ = self._run(
            capsys,
            ["run", "figure2", "--scale", "small", "--suite-dir", suite_dir],
        )
        assert resumed == baseline
        assert "0 appended" in err
        # A resume that appends nothing adds no segment.
        out, _ = self._run(capsys, ["journal", "stats", "--journal", journal_dir])
        assert "segments:      1" in out

    def test_journal_subcommand_missing_directory_rejected(self, capsys, tmp_path):
        assert "journal directory not found" in _rejected(
            capsys, ["journal", "stats", "--journal", str(tmp_path / "nope")]
        )


#: One value just outside each flag's bound, and the bound's message.
BOUND_CASES = [
    (["run", "figure2", "--llm-retries", "-1"], "must be >= 0: -1"),
    (["run", "figure2", "--llm-timeout", "0"], "must be > 0: 0.0"),
    (["run", "figure2", "--workers", "0"], "must be >= 1: 0"),
    (["serve", "--max-sessions", "0"], "must be >= 1: 0"),
    (["serve", "--llm-retries", "-1"], "must be >= 0: -1"),
    (["serve", "--llm-timeout", "0"], "must be > 0: 0.0"),
    (["serve", "--max-inflight", "0"], "must be >= 1: 0"),
    (["serve", "--max-inflight-per-tenant", "0"], "must be >= 1: 0"),
    (["serve", "--request-deadline-ms", "0"], "must be > 0: 0.0"),
    (["serve", "--cache-max", "0"], "must be >= 1: 0"),
    (["serve", "--slo-latency-ms", "0"], "must be > 0: 0.0"),
    (["serve", "--slo-target", "1"], "must be > 0 and < 1: 1.0"),
    (["serve", "--slo-target", "0"], "must be > 0 and < 1: 0.0"),
    (["serve", "--read-timeout-ms", "0"], "must be > 0: 0.0"),
    (["serve", "--max-body-bytes", "0"], "must be >= 1: 0"),
    (["serve", "--probe-interval-ms", "0"], "must be > 0: 0.0"),
    (["serve", "--semantic-cache-max", "0"], "must be >= 1: 0"),
]


def _bounded_flags() -> set:
    """(subcommand, flag) for every option whose type checks a range."""
    parser = _build_parser()
    (subcommands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        (name, action.option_strings[-1])
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        if getattr(action.type, "__qualname__", "").startswith("_bounded.")
    }


class TestCliFlagBounds:
    """Each numeric bound is declared on its flag and checked at parse time."""

    @pytest.mark.parametrize(
        "argv, message",
        BOUND_CASES,
        ids=[f"{argv[0]} {argv[-2]} {argv[-1]}" for argv, _ in BOUND_CASES],
    )
    def test_out_of_bound_value_exits_before_any_work(
        self, argv, message, capsys, no_build_context
    ):
        err = _rejected(capsys, argv)
        assert f"error: argument {argv[-2]}: {message}" in err

    def test_every_bounded_flag_has_a_case(self):
        cases = {(argv[0], argv[-2]) for argv, _ in BOUND_CASES}
        assert cases == _bounded_flags()

    def test_non_numbers_keep_argparse_wording(self, capsys):
        err = _rejected(capsys, ["run", "figure2", "--workers", "two"])
        assert "argument --workers: invalid int value: 'two'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure2", "--route-map", "nl2sql=a"],
            ["serve", "--route-map", "nl2sql=a"],
            ["serve", "--breaker-threshold", "5"],
            ["serve", "--breaker-reset-ms", "30000"],
            ["serve", "--drain-grace", "60"],
            ["serve", "--log-max-bytes", "1024"],
            ["top", "--once", "--interval", "2"],
            ["top", "--once", "--timeout", "10"],
            ["trace-summary", "trace.jsonl", "--depth", "1"],
            ["run", "figure2", "--hedge-after-ms", "50"],
            ["serve", "--hedge-after-ms", "50"],
            ["run", "figure2", "--probe-interval-ms", "200"],
            ["run", "figure2", "--cache-max", "128"],
            ["run", "figure2", "--semantic-cache-dir", "semcache"],
            ["run", "figure2", "--semantic-cache-max", "128"],
            ["run", "figure2", "--semantic-cache-ttl-s", "60"],
            ["serve", "--semantic-cache-ttl-s", "60"],
        ],
    )
    def test_deleted_flags_are_unrecognized(
        self, argv, capsys, no_build_context
    ):
        err = _rejected(capsys, argv)
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestCliProbeFlag:
    """serve's --probe-interval-ms reaches the pool's background prober."""

    @pytest.fixture()
    def intervals(self, monkeypatch):
        from repro.llm.router import BackendPool

        seen: list = []
        monkeypatch.setattr(
            BackendPool, "start_probing", lambda pool, ms=None: seen.append(ms)
        )
        monkeypatch.setattr("repro.serve.run_server", lambda app, **kw: 0)
        return seen

    def test_serve_probes_at_the_interval(self, intervals):
        argv = ["serve", "--scale", "small", "--port", "0",
                "--backend", "a=simulated"]
        assert cli_main(argv + ["--probe-interval-ms", "200"]) == 0
        assert cli_main(argv) == 0
        assert intervals == [200.0, None]

    def test_the_interval_needs_a_backend(self, capsys, no_build_context):
        err = _rejected(capsys, ["serve", "--probe-interval-ms", "200"])
        assert "--probe-interval-ms requires at least one --backend" in err


class TestCliServeFlags:
    """serve's address, capacity, session directory and SLO target reach
    the app it hands to the server."""

    def test_flags_reach_the_app(self, monkeypatch, tmp_path):
        session_dir = tmp_path / "sessions"
        db = {"db": "experience_platform", "tenant": "acme"}
        seen: dict = {}

        def fake_run_server(app, **kwargs) -> int:
            seen["host"] = kwargs["host"]
            client = ServeClient.in_process(app)
            first = client.create_session(**db)["id"]
            client.create_session(**db)  # evicts the first: one resident
            seen["saved"] = (session_dir / f"{first}.json").exists()
            status, raw = client.request_raw(
                "POST", "/sessions", dict(db, resume=first)
            )
            seen["resumed"] = (status, json_decode(raw).get("restored"))
            client.ask(first, "How many audiences were created in January?")
            tenants = client.statusz()["telemetry"]["tenants"]
            seen["slo"] = tenants["acme"]["slo"]
            return 0

        monkeypatch.setattr("repro.serve.run_server", fake_run_server)
        argv = [
            "serve", "--scale", "small", "--host", "localhost", "--port", "0",
            "--max-sessions", "1", "--session-dir", str(session_dir),
            "--slo-target", "0.9",
        ]
        assert cli_main(argv) == 0
        assert seen["host"] == "localhost"
        assert seen["saved"]
        assert seen["resumed"] == (201, True)
        assert seen["slo"]["target"] == 0.9
