"""Resume parity: journaled reruns render byte-identical artifacts.

The durability contract: a run that journals, dies, and resumes must
produce *exactly* the bytes an uninterrupted run produces, with only the
unjournaled items re-executed. These tests prove it in-process at the
small scale; ``test_crash_resume.py`` proves the kill -9 version through
the CLI.
"""

import pytest

from repro.durability import RunJournal
from repro.durability.faultpoints import (
    SimulatedCrash,
    arm_fault_point,
    disarm_fault_points,
)
from repro.eval.experiments import run_figure2, run_table2
from repro.eval.harness import build_context
from repro.eval.reporting import render_figure2, render_table2

SEED = 20250325


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    disarm_fault_points()


@pytest.fixture(scope="module")
def figure2_baseline():
    context = build_context(scale="small", seed=SEED)
    return render_figure2(run_figure2(context))


class TestResumeParity:
    def test_cold_then_resume_is_byte_identical(
        self, tmp_path, figure2_baseline
    ):
        cold_journal = RunJournal(tmp_path)
        cold_context = build_context(
            scale="small", seed=SEED, journal=cold_journal
        )
        cold = render_figure2(run_figure2(cold_context))
        cold_journal.close()
        assert cold == figure2_baseline
        assert cold_journal.appended > 0
        assert cold_journal.replayed == 0

        warm_journal = RunJournal(tmp_path)
        warm_context = build_context(
            scale="small", seed=SEED, journal=warm_journal
        )
        warm = render_figure2(run_figure2(warm_context))
        warm_journal.close()
        assert warm == figure2_baseline
        assert warm_journal.appended == 0
        assert warm_journal.replayed == cold_journal.appended

    def test_crash_mid_run_then_resume(self, tmp_path, figure2_baseline):
        arm_fault_point("journal.append", on_hit=25, action="raise")
        crashed_journal = RunJournal(tmp_path)
        crashed_context = build_context(
            scale="small", seed=SEED, journal=crashed_journal
        )
        with pytest.raises(SimulatedCrash):
            run_figure2(crashed_context)
        disarm_fault_points()
        # No close/seal: the crashed process never got to clean up.

        resumed_journal = RunJournal(tmp_path)
        assert len(resumed_journal) == 25  # every fsync'd item survived
        resumed_context = build_context(
            scale="small", seed=SEED, journal=resumed_journal
        )
        resumed = render_figure2(run_figure2(resumed_context))
        resumed_journal.close()
        assert resumed == figure2_baseline
        assert resumed_journal.replayed == 25
        assert resumed_journal.appended > 0

    def test_resume_across_parallelism_change(
        self, tmp_path, figure2_baseline
    ):
        cold_journal = RunJournal(tmp_path)
        cold_context = build_context(
            scale="small", seed=SEED, journal=cold_journal
        )
        run_figure2(cold_context)
        cold_journal.close()

        # Journal scopes exclude workers: a resume under different
        # parallelism replays everything and recomputes nothing.
        warm_journal = RunJournal(tmp_path)
        warm_context = build_context(
            scale="small", seed=SEED, journal=warm_journal, workers=2
        )
        warm = render_figure2(run_figure2(warm_context))
        warm_journal.close()
        assert warm == figure2_baseline
        assert warm_journal.appended == 0

    def test_correction_sessions_replay(self, tmp_path):
        baseline = render_table2(
            run_table2(build_context(scale="small", seed=SEED))
        )
        cold_journal = RunJournal(tmp_path)
        cold = render_table2(
            run_table2(
                build_context(scale="small", seed=SEED, journal=cold_journal)
            )
        )
        cold_journal.close()
        assert cold == baseline

        warm_journal = RunJournal(tmp_path)
        warm = render_table2(
            run_table2(
                build_context(scale="small", seed=SEED, journal=warm_journal)
            )
        )
        warm_journal.close()
        assert warm == baseline
        assert warm_journal.appended == 0
        assert warm_journal.replayed == cold_journal.appended


class TestSuiteWarmStart:
    def test_warm_start_matches_cold(self, tmp_path, figure2_baseline):
        cold_context = build_context(
            scale="small", seed=SEED, suite_dir=tmp_path
        )
        cold = render_figure2(run_figure2(cold_context))
        assert cold == figure2_baseline
        assert list(tmp_path.glob("suite-small-*.json"))

        warm_context = build_context(
            scale="small", seed=SEED, suite_dir=tmp_path
        )
        warm = render_figure2(run_figure2(warm_context))
        assert warm == figure2_baseline

    def test_corrupt_suite_regenerates(
        self, tmp_path, figure2_baseline, monkeypatch
    ):
        from repro.eval import harness

        # Simulate a fresh process: no in-memory context cache, so the
        # corrupt file is actually read (and quarantined) on load.
        monkeypatch.setattr(harness, "_CONTEXT_CACHE", {})
        path = tmp_path / f"suite-small-{SEED}.json"
        path.write_text("rotted")
        context = build_context(scale="small", seed=SEED, suite_dir=tmp_path)
        assert render_figure2(run_figure2(context)) == figure2_baseline
        # Quarantined aside and regenerated in place.
        assert (tmp_path / (path.name + ".corrupt")).exists()
        assert path.exists()
