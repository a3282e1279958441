"""End-to-end chaos runs through the CLI: determinism and tolerance."""

from __future__ import annotations

import re

import pytest

from repro import obs
from repro.cli import main as cli_main

#: Documented tolerance (percentage points) between fault-free and
#: default-profile chaos correction rates at small scale (README,
#: "Resilience & chaos testing").
CHAOS_TOLERANCE_POINTS = 20.0


def _run(argv) -> str:
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = cli_main(argv)
    assert exit_code == 0
    return buffer.getvalue()


def _resilience_section(output: str) -> str:
    match = re.search(
        r"-- Resilience & degradation\n(.*?)(?:\n\n|\Z)", output, re.S
    )
    assert match, "run report must contain the resilience section"
    return match.group(1)


def _table2_percents(output: str) -> dict[str, tuple[float, float]]:
    """Measured (EP, SPIDER) percentages per method from the table."""
    rates = {}
    for line in output.splitlines():
        match = re.match(
            r"(Query Rewrite|FISQL \(- Routing\)|FISQL)\s*\|\s*([\d.]+|-)\s*\|"
            r"\s*(?:[\d.]+|-)\s*\|\s*([\d.]+|-)\s*\|", line
        )
        if match:
            method, ep, spider = match.groups()
            rates[method] = (
                float(ep) if ep != "-" else float("nan"),
                float(spider) if spider != "-" else float("nan"),
            )
    assert rates, "table 2 rows must be parseable"
    return rates


class TestChaosRun:
    def test_chaos_run_completes_and_reports_degradation(self, capsys):
        exit_code = cli_main(
            ["table2", "--scale", "small", "--inject-faults", "default",
             "--metrics"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        section = _resilience_section(out)
        assert "faults injected:" in section
        assert "retries:" in section

    def test_chaos_counters_deterministic_across_runs(self):
        argv = [
            "table2", "--scale", "small", "--inject-faults", "default",
            "--metrics",
        ]
        first = _resilience_section(_run(argv))
        second = _resilience_section(_run(argv))
        assert first == second

    def test_chaos_artifact_deterministic_across_runs(self):
        argv = ["table2", "--scale", "small", "--inject-faults", "default"]
        assert _run(argv) == _run(argv + ["--workers", "1"])

    @pytest.mark.parametrize(
        "faults",
        [
            ["--inject-faults", "default"],
            ["--backend", "primary=simulated,fault=outage", "--backend", "b=simulated"],
        ],
        ids=["inject-faults", "backend-fault"],
    )
    def test_injected_faults_at_more_workers_exit_before_any_work(
        self, capsys, monkeypatch, faults
    ):
        # Each fault is drawn by call order, which worker threads change.
        def refuse(**_kwargs):
            raise AssertionError("build_context ran")

        monkeypatch.setattr("repro.cli.build_context", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                ["run", "table2", "--scale", "small", "--metrics", "--workers", "2", *faults]
            )
        assert excinfo.value.code == 2
        assert "need --workers 1" in capsys.readouterr().err
        assert not obs.is_enabled()

    def test_none_profile_is_byte_identical_to_plain_run(self):
        plain = _run(["table2", "--scale", "small"])
        wrapped = _run(
            ["table2", "--scale", "small", "--inject-faults", "none"]
        )
        assert wrapped == plain

    def test_chaos_rates_within_documented_tolerance(self):
        plain = _table2_percents(_run(["table2", "--scale", "small"]))
        chaos = _table2_percents(
            _run(["table2", "--scale", "small", "--inject-faults", "default"])
        )
        assert set(chaos) == set(plain)
        for method, (plain_ep, plain_spider) in plain.items():
            chaos_ep, chaos_spider = chaos[method]
            for before, after in ((plain_ep, chaos_ep), (plain_spider, chaos_spider)):
                if before != before:  # NaN: the dash cell
                    continue
                assert abs(after - before) <= CHAOS_TOLERANCE_POINTS, (
                    f"{method}: {before} -> {after}"
                )

    def test_bad_fault_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["table2", "--scale", "small", "--inject-faults", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_retry_flags_alone_keep_artifacts_identical(self):
        plain = _run(["figure2", "--scale", "small"])
        wrapped = _run(
            ["figure2", "--scale", "small", "--llm-retries", "3",
             "--llm-timeout", "500"]
        )
        assert wrapped == plain
