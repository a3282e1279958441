"""Determinism helpers, CLI, and example-script smoke tests."""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cli import _build_parser
from repro.cli import main as cli_main
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

    def test_cache_max_requires_cache_dir(self, capsys):
        err = _rejected(
            capsys, ["run", "figure2", "--scale", "small", "--cache-max", "5"]
        )
        assert "--cache-max requires --cache-dir" in err

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


class TestCliSemcacheFlags:
    """--semantic-cache wiring: validation, stats, replay, clean stdout."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_flag_validation(self, capsys):
        assert "--semantic-cache-dir requires --semantic-cache" in _rejected(
            capsys, ["run", "figure2", "--semantic-cache-dir", "/tmp/x"]
        )
        assert "--semantic-cache-max requires --semantic-cache" in _rejected(
            capsys, ["run", "figure2", "--semantic-cache-max", "5"]
        )
        assert "argument --semantic-cache-max: must be >= 1: 0" in _rejected(
            capsys,
            ["run", "figure2", "--semantic-cache",
             "--semantic-cache-max", "0"],
        )
        assert "--semantic-cache-dir requires --semantic-cache" in _rejected(
            capsys, ["serve", "--semantic-cache-dir", "/tmp/x"]
        )
        assert "pass --cache-dir and/or --semantic-cache-dir" in _rejected(
            capsys, ["cache", "stats"]
        )

    def test_flag_off_stays_byte_identical(self, capsys, tmp_path):
        """The load-bearing guarantee: runs WITHOUT the flag are unchanged
        by a semantic-cached run in between; runs WITH the flag are
        deterministic against the same store (paraphrase collisions may
        legitimately change which answer is served — that is what
        ``semcache replay`` reports as divergences)."""
        semcache_dir = str(tmp_path / "semcache")
        baseline, baseline_err = self._run(
            capsys, ["run", "figure2", "--scale", "small"]
        )
        assert "[semcache]" not in baseline_err

        cached, cached_err = self._run(
            capsys,
            [
                "run", "figure2", "--scale", "small",
                "--semantic-cache", "--semantic-cache-dir", semcache_dir,
            ],
        )
        assert "[semcache]" in cached_err
        assert f"saved to {semcache_dir}" in cached_err
        assert (tmp_path / "semcache" / "semcache.json").exists()
        assert (tmp_path / "semcache" / "questions.jsonl").exists()

        warm, warm_err = self._run(
            capsys,
            [
                "run", "figure2", "--scale", "small",
                "--semantic-cache", "--semantic-cache-dir", semcache_dir,
            ],
        )
        assert warm == cached
        assert "[semcache]" in warm_err

        plain_again, plain_err = self._run(
            capsys, ["run", "figure2", "--scale", "small"]
        )
        assert plain_again == baseline
        assert "[semcache]" not in plain_err

    def test_cache_subcommand_covers_semantic_store(self, capsys, tmp_path):
        semcache_dir = str(tmp_path / "semcache")
        self._run(
            capsys,
            [
                "run", "figure2", "--scale", "small",
                "--semantic-cache", "--semantic-cache-dir", semcache_dir,
            ],
        )
        stats_out, _ = self._run(
            capsys, ["cache", "stats", "--semantic-cache-dir", semcache_dir]
        )
        assert "semcache" in stats_out
        assert "entries:       0" not in stats_out
        assert "bypasses:" in stats_out
        assert "fingerprints:" in stats_out

        clear_out, _ = self._run(
            capsys, ["cache", "clear", "--semantic-cache-dir", semcache_dir]
        )
        assert "cleared" in clear_out
        stats_out, _ = self._run(
            capsys, ["cache", "stats", "--semantic-cache-dir", semcache_dir]
        )
        assert "entries:       0" in stats_out

    def test_semcache_replay_subcommand(self, capsys, tmp_path):
        semcache_dir = str(tmp_path / "semcache")
        with pytest.raises(SystemExit):
            cli_main(
                ["semcache", "replay", "--semantic-cache-dir", semcache_dir]
            )
        self._run(
            capsys,
            [
                "run", "figure2", "--scale", "small",
                "--semantic-cache", "--semantic-cache-dir", semcache_dir,
            ],
        )
        out, _ = self._run(
            capsys,
            [
                "semcache", "replay", "--scale", "small",
                "--semantic-cache-dir", semcache_dir,
            ],
        )
        assert "semcache replay" in out
        assert "rounds:" in out
        assert "rounds:        0" not in out
        assert "divergences:" in out


class TestCliConcurrencyFlags:
    """The semantic-cache TTL flag and the journal subcommand."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_semcache_ttl_flag_validation(self, capsys):
        assert "--semantic-cache-ttl-s requires --semantic-cache" in _rejected(
            capsys, ["run", "figure2", "--semantic-cache-ttl-s", "60"]
        )
        assert "argument --semantic-cache-ttl-s: must be > 0: 0.0" in (
            _rejected(
                capsys,
                ["run", "figure2", "--semantic-cache",
                 "--semantic-cache-ttl-s", "0"],
            )
        )

    def test_journal_subcommand_stats_and_compact(self, capsys, tmp_path):
        journal_dir = str(tmp_path / "journal")
        suite_dir = str(tmp_path / "suites")
        self._run(
            capsys,
            ["run", "figure2", "--scale", "small",
             "--journal", journal_dir, "--suite-dir", suite_dir],
        )
        out, _ = self._run(capsys, ["journal", "stats", "--journal", journal_dir])
        assert "records:" in out
        assert "sealed segments:" in out

        out, _ = self._run(
            capsys, ["journal", "compact", "--journal", journal_dir]
        )
        assert "compacted" in out or "nothing to compact" in out

        # Compaction is invisible to resume: same stdout, full replay.
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

    def test_journal_subcommand_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                ["journal", "stats", "--journal", str(tmp_path / "nope")]
            )
        with pytest.raises(SystemExit):
            cli_main(
                ["journal", "compact", "--journal", str(tmp_path / "nope")]
            )


#: One value just outside each flag's bound, and the bound's message.
BOUND_CASES = [
    (["run", "figure2", "--llm-retries", "-1"], "must be >= 0: -1"),
    (["run", "figure2", "--llm-timeout", "0"], "must be > 0: 0.0"),
    (["run", "figure2", "--workers", "0"], "must be >= 1: 0"),
    (["run", "figure2", "--cache-max", "0"], "must be >= 1: 0"),
    (["run", "figure2", "--hedge-after-ms", "-1"], "must be >= 0: -1.0"),
    (["run", "figure2", "--probe-interval-ms", "0"], "must be > 0: 0.0"),
    (["run", "figure2", "--semantic-cache-max", "0"], "must be >= 1: 0"),
    (["run", "figure2", "--semantic-cache-ttl-s", "0"], "must be > 0: 0.0"),
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
    (["serve", "--hedge-after-ms", "-1"], "must be >= 0: -1.0"),
    (["serve", "--probe-interval-ms", "0"], "must be > 0: 0.0"),
    (["serve", "--semantic-cache-max", "0"], "must be >= 1: 0"),
    (["serve", "--semantic-cache-ttl-s", "0"], "must be > 0: 0.0"),
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
        ],
    )
    def test_deleted_flags_are_unrecognized(
        self, argv, capsys, no_build_context
    ):
        err = _rejected(capsys, argv)
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestCliHedgeFlag:
    """--hedge-after-ms reaches the router a run or a serve tenant builds."""

    BACKENDS = ["--backend", "a=simulated", "--backend", "b=simulated"]

    @pytest.fixture()
    def hedges(self, monkeypatch):
        from repro.llm import router

        seen: list = []
        init = router.RoutingChatModel.__init__

        def recording_init(model, pool, hedge_after_ms=None, **kwargs):
            seen.append(hedge_after_ms)
            init(model, pool, hedge_after_ms=hedge_after_ms, **kwargs)

        monkeypatch.setattr(router.RoutingChatModel, "__init__", recording_init)
        return seen

    def test_run_hedges_after_it_and_prints_the_flagless_bytes(
        self, capsys, hedges
    ):
        argv = ["run", "figure2", "--scale", "small", *self.BACKENDS]
        assert cli_main(argv) == 0
        flagless = capsys.readouterr().out
        assert cli_main(argv + ["--hedge-after-ms", "50"]) == 0
        assert capsys.readouterr().out == flagless
        assert hedges == [None, 50.0]

    def test_serve_hands_it_to_each_tenant_router(self, monkeypatch, hedges):
        def fake_run_server(app, **kwargs) -> int:
            client = ServeClient.in_process(app)
            session = client.create_session(db="experience_platform")["id"]
            client.ask(session, "How many audiences were created in January?")
            return 0

        monkeypatch.setattr("repro.serve.run_server", fake_run_server)
        argv = ["serve", "--scale", "small", "--port", "0", *self.BACKENDS]
        assert cli_main(argv + ["--hedge-after-ms", "50"]) == 0
        assert hedges and set(hedges) == {50.0}


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
