"""The chaos scenario runner, exercised the way CI's smoke job runs it.

Each scenario is a self-checking experiment: it injects one hostile
condition and returns a report whose checks *are* the assertions. The
tests here run the CI-fast scenarios end to end and pin the report
shape the ``fisql-repro chaos`` subcommand renders.
"""

from __future__ import annotations

import pytest

from repro.chaos.scenarios import SCENARIOS, run_scenario
from repro.cli import main as cli_main
from repro.durability import disarm_fault_points


@pytest.fixture(autouse=True)
def _disarm():
    disarm_fault_points()
    yield
    disarm_fault_points()


def _assert_clean_report(report: dict, name: str) -> None:
    assert report["scenario"] == name
    assert report["checks"], "a scenario must assert something"
    failed = [check for check in report["checks"] if not check["passed"]]
    details = "; ".join(
        f"{check['name']}: {check['detail']}" for check in failed
    )
    assert report["passed"], f"failed checks -- {details}"


def test_catalog_is_populated():
    assert set(SCENARIOS) == {
        "disk-full-mid-sweep",
        "slow-loris-drain",
        "retry-storm",
    }
    for runner in SCENARIOS.values():
        assert runner.__doc__


def test_cli_list_prints_the_catalog_and_runs_nothing(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("repro.chaos.scenarios.run_scenario", refuse)
    assert cli_main(["chaos", "--list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == ["disk-full-mid-sweep", "retry-storm", "slow-loris-drain"]


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("meteor-strike")


def test_disk_full_mid_sweep_passes(tmp_path):
    report = run_scenario("disk-full-mid-sweep", work_dir=tmp_path)
    _assert_clean_report(report, "disk-full-mid-sweep")
    # The scenario's own evidence: it really did degrade mid-run.
    names = [check["name"] for check in report["checks"]]
    assert "journal flipped to degraded read-only mode" in names
    assert "fault-free --resume is byte-identical" in names


def test_slow_loris_drain_passes(tmp_path):
    report = run_scenario("slow-loris-drain", work_dir=tmp_path)
    _assert_clean_report(report, "slow-loris-drain")
    names = [check["name"] for check in report["checks"]]
    assert "every slow loris was cut off by the read deadline" in names


def test_retry_storm_passes(tmp_path):
    report = run_scenario("retry-storm", work_dir=tmp_path)
    _assert_clean_report(report, "retry-storm")
    names = [check["name"] for check in report["checks"]]
    assert "zero duplicated turns despite the storm" in names


def test_work_dir_artifacts_are_kept(tmp_path):
    run_scenario("disk-full-mid-sweep", work_dir=tmp_path)
    kept = tmp_path / "disk-full-mid-sweep"
    assert kept.is_dir()
    assert any(kept.iterdir())
