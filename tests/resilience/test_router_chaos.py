"""Chaos runs through the router: a flapping primary mid-correction-sweep.

A seeded fault profile flaps the primary backend while a full table-2
correction sweep runs. The sweep must fail over to the secondary, drop
zero correction sessions, readmit the primary once a half-open call
through its breaker succeeds (a live call: a run sends no probe prompt),
and — with the profile off — produce byte-identical artifacts to the
unrouted pipeline.
"""

from __future__ import annotations

import re

from repro import obs
from repro.cli import main as cli_main
from repro.eval.experiments import run_table2
from repro.eval.harness import build_context
from repro.eval.reporting import render_table2
from repro.llm import router as router_module
from repro.llm.router import (
    RoutingChatModel,
    build_backend_pool,
    parse_backend_spec,
)
from repro.resilience import VirtualClock


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


def _artifact(output: str) -> str:
    """The table itself, before the run report's timing sections."""
    return output.split("-- Wall-clock by span")[0]


def _routed_table2(specs) -> tuple:
    """Run the table-2 sweep through a router; returns (output, pool)."""
    clock = VirtualClock(tick=0.001)
    pool = build_backend_pool(
        [parse_backend_spec(spec) for spec in specs],
        clock=clock,
        sleep=clock.sleep,
        seed=20250325,
    )
    router = RoutingChatModel(pool)
    context = build_context(scale="small", seed=20250325, llm=router)
    output = render_table2(run_table2(context))
    return output, pool


class TestFlappingPrimarySweep:
    def test_failover_readmission_and_no_dropped_sessions(self, monkeypatch):
        def refuse():
            raise AssertionError("the sweep sent a probe prompt")

        monkeypatch.setattr(router_module, "probe_prompt", refuse)
        obs.enable()
        try:
            output, pool = _routed_table2(
                [
                    "primary=simulated,fault=outage,retries=0,"
                    "breaker-reset-ms=100",
                    "secondary=simulated",
                ]
            )
            snapshot = obs.snapshot()
        finally:
            obs.disable()
        # The sweep rendered a full table despite the flapping primary.
        assert "FISQL" in output
        health = pool.health_snapshot()
        # Failover happened: the secondary carried real traffic.
        assert health["secondary"]["calls_ok"] > 0
        # The primary flapped: its breaker tripped at least once, and a
        # live half-open call closed it again.
        assert health["primary"]["ejections"] >= 1
        assert health["primary"]["readmissions"] >= 1
        # Zero dropped correction sessions despite the flapping.
        aborted = sum(
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "eval.correction_failures"
        )
        assert aborted == 0
        failovers = sum(
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "llm.backend"
            and entry["labels"].get("outcome") == "failover"
        )
        assert failovers >= 1

    def test_flapping_sweep_is_deterministic(self):
        specs = [
            "primary=simulated,fault=outage,retries=0,breaker-reset-ms=100",
            "secondary=simulated",
        ]
        first_output, first_pool = _routed_table2(specs)
        second_output, second_pool = _routed_table2(specs)
        assert first_output == second_output
        first_health = first_pool.health_snapshot()
        second_health = second_pool.health_snapshot()
        assert first_health == second_health

    def test_fault_free_router_is_byte_identical_to_plain_pipeline(self):
        plain_context = build_context(scale="small", seed=20250325)
        plain = render_table2(run_table2(plain_context))
        routed, pool = _routed_table2(["only=simulated"])
        assert routed == plain
        assert pool["only"].calls_failed == 0


class TestRoutedChaosCLI:
    ARGV = [
        "run", "table2", "--scale", "small", "--metrics",
        "--backend", "primary=simulated,fault=outage,retries=1",
        "--backend", "secondary=simulated",
    ]

    def test_routed_chaos_run_reports_failover(self):
        out = _run(self.ARGV)
        match = re.search(
            r"backend failovers: (\d+)", out
        )
        assert match and int(match.group(1)) >= 1
        assert "backend ejections:" in out
        assert "correction sessions aborted" not in out

    def test_routed_chaos_run_deterministic(self):
        # Wall-clock spans vary run to run; the artifact and the
        # resilience counters (failovers, ejections, per-backend
        # outcomes) must not.
        first, second = _run(self.ARGV), _run(self.ARGV + ["--workers", "1"])
        assert _artifact(first) == _artifact(second)
        assert _resilience_section(first) == _resilience_section(second)

    def test_single_backend_run_byte_identical_to_plain(self):
        plain = _run(["run", "table2", "--scale", "small"])
        routed = _run(
            ["run", "table2", "--scale", "small",
             "--backend", "only=simulated"]
        )
        assert routed == plain

    def test_inject_faults_conflicts_with_backend(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            cli_main(
                ["run", "table2", "--scale", "small",
                 "--inject-faults", "default",
                 "--backend", "a=simulated"]
            )
        assert "conflicts" in capsys.readouterr().err
