"""Determinism helpers, CLI, and example-script smoke tests."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.util import stable_choice, stable_fraction

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    def test_resume_without_journal_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "figure2", "--scale", "small", "--resume"])

    def test_cache_max_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "figure2", "--scale", "small", "--cache-max", "5"])

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

    def test_serve_overload_flag_validation(self):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--max-inflight", "0"])
        with pytest.raises(SystemExit):
            cli_main(["serve", "--max-inflight-per-tenant", "0"])
        with pytest.raises(SystemExit):
            cli_main(["serve", "--request-deadline-ms", "0"])


class TestCliSemcacheFlags:
    """--semantic-cache wiring: validation, stats, replay, clean stdout."""

    def _run(self, capsys, argv):
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_flag_validation(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["run", "figure2", "--semantic-cache-dir", "/tmp/x"]
            )
        with pytest.raises(SystemExit):
            cli_main(["run", "figure2", "--semantic-cache-max", "5"])
        with pytest.raises(SystemExit):
            cli_main(
                ["run", "figure2", "--semantic-cache",
                 "--semantic-cache-max", "0"]
            )
        with pytest.raises(SystemExit):
            cli_main(["serve", "--semantic-cache-dir", "/tmp/x"])
        with pytest.raises(SystemExit):
            cli_main(["cache", "stats"])

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

    def test_semcache_ttl_flag_validation(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["run", "figure2", "--semantic-cache-ttl-s", "60"]
            )
        with pytest.raises(SystemExit):
            cli_main(
                ["run", "figure2", "--semantic-cache",
                 "--semantic-cache-ttl-s", "0"]
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
