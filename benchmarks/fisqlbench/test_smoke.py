"""Each workload end to end at scale ``small``, shortened to a few seconds."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.fisqlbench import ROOT, launch, run


@pytest.fixture
def short(monkeypatch):
    """Two set-ups, a short warm-up and one short ladder step."""
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "WARM_UP_SESSIONS", 4)
    monkeypatch.setattr(run, "LADDER_RATES", (8.0,))
    monkeypatch.setattr(run, "LADDER_STEP_S", 1.0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
def test_workload_smoke(short, tmp_path, workload, trace):
    outcome, path = run.run_workload(
        workload, seed=11, seconds=2.0, trace=trace, scale="small", out_dir=tmp_path
    )
    assert outcome.correct and outcome.failed == 0, outcome.problems
    assert path.is_file()
    line = run.result_line([outcome], trace)
    assert line["attempted"] >= 1
    assert all(metric["value"] == metric["value"] for metric in line["metrics"].values())
    if trace:
        assert outcome.metrics["sql.parse.calls"][0] > 0
        assert outcome.metrics["datasets.generate.self_ms"][0] > 0
    elif workload == "sweep-full":
        sweeps = outcome.phases["sweeps"]
        # One child sweeps; a set-up-only child adds the second set-up.
        assert len(sweeps["sweep_s"]) >= launch.MIN_SWEEPS
        assert len(sweeps["setup_s"]) == 2
        assert all(
            len(times) == 4 * launch.REFERENCE_RUNS for times in sweeps["reference_ms"]
        )
    else:
        assert outcome.metrics["answer_match"][0] == 1.0
        assert outcome.phases["warm-up"]["sessions"] == 4
        assert "ladder-8" in outcome.phases


@pytest.mark.parametrize(
    "seconds, sweep_s, sweeps",
    [
        (15.0, 7.5, 4),
        (15.0, 9.0, 3),  # 27 s swept after three: past the 25 s cap
        (15.0, 13.0, 2),  # 26 s after two
        (15.0, 26.0, 1),  # 26 s after one
        (45.0, 7.5, 6),  # a longer run sweeps for as long as asked
        (None, 1.0, 1),  # a traced run sweeps once
    ],
)
def test_sweep_count_follows_time_then_the_cap(seconds, sweep_s, sweeps):
    assert (launch.MIN_SWEEPS, launch.SWEEP_CAP_S) == (4, 25.0)
    times = []
    while launch.keep_sweeping(times, seconds):
        times.append(sweep_s)
    assert len(times) == sweeps


def test_refuses_to_run_without_the_program(tmp_path):
    """A copy holding only the benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "fisqlbench",
        tmp_path / "benchmarks" / "fisqlbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.fisqlbench", "run",
         "--workload", "sweep-full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
