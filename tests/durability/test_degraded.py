"""Graceful write-degradation: a failing disk costs durability, not the run.

Every persister absorbs the injected ``OSError`` (ENOSPC, EROFS — the
fault hook raises real errnos, because a root-owned test process ignores
``chmod`` and needs injection to see a read-only filesystem), keeps
serving from memory, flips its degraded flag, and counts the loss under
``durability.degraded`` so the run report can say what happened. The
whole-file persisters get that rule from the atomic writer, so their
faults are armed at its ``disk.atomic_write`` site.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.durability import RunJournal, arm_fault_point, disarm_fault_points
from repro.llm.dispatch import Completion, CompletionCache
from repro.obs.reporting import render_run_report
from repro.semcache import SemanticAnswerCache, SemcacheLookup
from repro.serve.persistence import SessionStore


@pytest.fixture(autouse=True)
def _disarm():
    disarm_fault_points()
    yield
    disarm_fault_points()


@pytest.fixture
def enabled_obs():
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


def _degraded_counts(snapshot: dict) -> dict:
    return {
        counter["labels"].get("kind"): counter["value"]
        for counter in snapshot["counters"]
        if counter["name"] == "durability.degraded"
    }


class TestJournalDegradation:
    def test_enospc_flips_degraded_and_keeps_the_run_going(
        self, tmp_path, enabled_obs
    ):
        journal = RunJournal(tmp_path / "journal")
        try:
            assert journal.append("k1", "turn", {"n": 1})
            # Arming resets the site's hit counter: the disk fills on
            # the *second* append after this line.
            arm_fault_point(
                "disk.journal_append", on_hit=2, action="enospc", sticky=True
            )
            assert journal.append("k2", "turn", {"n": 2})  # still durable
            assert journal.append("k3", "turn", {"n": 3})  # ENOSPC: degrade
            assert journal.append("k4", "turn", {"n": 4})  # read-only mode
            assert journal.degraded
            assert journal.degraded_writes == 2
            assert journal.replay("k4") == {
                "key": "k4", "kind": "turn", "value": {"n": 4}
            }
            stats = journal.stats()
            assert stats["degraded"] is True
            assert stats["degraded_writes"] == 2
        finally:
            journal.close()
        assert _degraded_counts(obs.snapshot()).get("journal") == 2

    def test_surviving_records_reload_after_degradation(self, tmp_path):
        journal = RunJournal(tmp_path / "journal")
        journal.append("k1", "turn", {"n": 1})
        arm_fault_point("disk.journal_append", action="enospc", sticky=True)
        journal.append("k2", "turn", {"n": 2})
        journal.close()
        disarm_fault_points()

        reloaded = RunJournal(tmp_path / "journal")
        try:
            assert len(reloaded) == 1  # only the fsync'd record survived
            assert reloaded.replay("k1") is not None
            assert reloaded.replay("k2") is None
        finally:
            reloaded.close()


class TestSessionStoreDegradation:
    def test_readonly_store_fails_soft(self, tmp_path, enabled_obs):
        store = SessionStore(tmp_path / "sessions")
        assert store.save("s1", "t", "db", {"turns": [1]}) is True
        arm_fault_point("disk.atomic_write", action="erofs", sticky=True)
        assert store.save("s2", "t", "db", {"turns": [2]}) is False
        assert store.save("s3", "t", "db", {"turns": [3]}) is False
        assert store.save_failures == 2
        assert store.ids() == ["s1"]  # earlier saves untouched
        assert _degraded_counts(obs.snapshot()).get("session") == 2


class TestCompletionCacheDegradation:
    def test_full_disk_costs_warmth_not_the_run(self, tmp_path, enabled_obs):
        cache = CompletionCache()
        cache.put("key", Completion(text="SELECT 1", notes=[]))
        arm_fault_point("disk.atomic_write", action="enospc")
        assert cache.save(tmp_path / "cache") == 0
        assert cache.save_failed
        # The in-memory cache still serves.
        assert cache.get("key").text == "SELECT 1"
        assert _degraded_counts(obs.snapshot()).get("completion_cache") == 1
        # The disk recovered: the next save works.
        assert cache.save(tmp_path / "cache") == 1


class TestSemcacheDegradation:
    def test_save_failure_keeps_serving_from_memory(
        self, tmp_path, enabled_obs
    ):
        cache = SemanticAnswerCache(directory=tmp_path / "semcache")
        arm_fault_point("disk.replace", action="erofs")
        assert cache.save() is None
        assert cache.save_failed
        assert _degraded_counts(obs.snapshot()).get("semcache") == 1
        disarm_fault_points()
        assert cache.save() is not None

    def test_log_abandoned_after_first_failure(self, tmp_path, enabled_obs):
        cache = SemanticAnswerCache(directory=tmp_path / "semcache")
        lookup = SemcacheLookup(
            outcome="miss",
            tenant="t",
            db="aep",
            question="How many audiences?",
            fingerprint="fp",
        )
        arm_fault_point("disk.semcache_log", on_hit=1, action="enospc")
        cache.log_round(lookup, "ask")
        disarm_fault_points()
        # A log with a silent hole audits the wrong history: once
        # degraded, later rounds are not appended either.
        cache.log_round(lookup, "ask")
        assert not (tmp_path / "semcache" / "questions.jsonl").exists()
        counts = _degraded_counts(obs.snapshot())
        assert counts.get("semcache_log") == 1


class TestRunReportLine:
    def test_degraded_writes_surface_in_the_report(
        self, tmp_path, enabled_obs
    ):
        journal = RunJournal(tmp_path / "journal")
        arm_fault_point("disk.journal_append", action="enospc", sticky=True)
        journal.append("k1", "turn", {"n": 1})
        journal.close()
        report = render_run_report(obs.snapshot())
        assert "degraded writes (disk fault, in-memory fallback): 1" in report
        assert "journal" in report
