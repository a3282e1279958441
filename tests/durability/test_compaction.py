"""``journal compact``: folding sealed segments into one, resume-safely.

Compaction must be invisible to replay: a compacted journal resumes to
the same records (later-wins per key), and the merged segment lands at an
index above every existing one *before* the originals are unlinked.
"""

from __future__ import annotations

import pytest

from repro.durability import RunJournal, compact_journal, journal_stats


def _fill(directory, count, segment_max_records=4, prefix="key"):
    journal = RunJournal(directory, segment_max_records=segment_max_records)
    for index in range(count):
        journal.append(f"{prefix}-{index:03d}", "test", {"value": index})
    journal.seal()
    journal.close()
    return journal


class TestCompactJournal:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compact_journal(tmp_path / "nope")

    def test_single_segment_left_alone(self, tmp_path):
        _fill(tmp_path, 3, segment_max_records=100)
        stats = compact_journal(tmp_path)
        assert stats["output"] is None
        assert stats["segments"] == 1
        assert stats["records"] == 3
        assert len(list(tmp_path.glob("segment-*.sealed.json"))) == 1

    def test_compacts_to_one_segment_with_same_replay(self, tmp_path):
        _fill(tmp_path, 10, segment_max_records=3)
        before = RunJournal(tmp_path)
        snapshot = {
            f"key-{index:03d}": before.get(f"key-{index:03d}")
            for index in range(10)
        }
        before.close()
        assert len(list(tmp_path.glob("segment-*.sealed.json"))) > 1

        stats = compact_journal(tmp_path)
        assert stats["records"] == 10
        assert stats["quarantined"] == 0
        sealed = list(tmp_path.glob("segment-*.sealed.json"))
        assert [path.name for path in sealed] == [stats["output"]]

        after = RunJournal(tmp_path)
        assert len(after) == 10
        for key, value in snapshot.items():
            assert after.get(key) == value
        after.close()

    def test_output_index_above_all_sources(self, tmp_path):
        _fill(tmp_path, 10, segment_max_records=2)
        indices = sorted(
            int(path.name.split("-")[1][:4])
            for path in tmp_path.glob("segment-*.sealed.json")
        )
        stats = compact_journal(tmp_path)
        output_index = int(stats["output"].split("-")[1][:4])
        assert output_index == indices[-1] + 1

    def test_merges_worker_segments(self, tmp_path):
        """``segment-NNNN.wPID`` segments, as older per-process sweep
        workers named them, still resume and fold in. Two workers may
        have sealed the same index."""
        for worker in (101, 202):
            staging = tmp_path / f"staging-{worker}"
            _fill(staging, 4, prefix=f"w{worker}")
            (sealed,) = staging.glob("segment-*.sealed.json")
            sealed.rename(
                tmp_path / sealed.name.replace(".sealed", f".w{worker}.sealed")
            )
            staging.rmdir()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "segment-0000.w101.sealed.json",
            "segment-0000.w202.sealed.json",
        ]
        resumed = RunJournal(tmp_path)
        assert len(resumed) == 8
        resumed.close()

        stats = compact_journal(tmp_path)
        assert stats["segments"] == 2
        assert stats["records"] == 8
        assert not list(tmp_path.glob("segment-*.w*.sealed.json"))
        merged = RunJournal(tmp_path)
        assert len(merged) == 8
        merged.close()

    def test_active_segments_untouched(self, tmp_path):
        _fill(tmp_path, 6, segment_max_records=2)
        live = RunJournal(tmp_path, segment_max_records=100)
        live.append("live-key", "test", {"value": "live"})
        compact_journal(tmp_path)
        assert list(tmp_path.glob("segment-*.jsonl"))  # still there
        live.close()
        reloaded = RunJournal(tmp_path)
        assert reloaded.get("live-key")["value"] == {"value": "live"}
        assert len(reloaded) == 7
        reloaded.close()

    def test_later_segment_wins_ties(self, tmp_path):
        journal = RunJournal(tmp_path, segment_max_records=1)
        journal.append("shared", "test", {"value": "old"})
        journal.seal()
        journal.close()
        second = RunJournal(tmp_path, segment_max_records=1)
        # A fresh process re-journals the same key with a newer value.
        second._records.pop("shared", None)  # simulate non-replayed recompute
        second.append("shared", "test", {"value": "new"})
        second.seal()
        second.close()
        compact_journal(tmp_path)
        merged = RunJournal(tmp_path)
        assert merged.get("shared")["value"] == {"value": "new"}
        merged.close()


class TestJournalStats:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            journal_stats(tmp_path / "nope")

    def test_counts_sealed_active_and_records(self, tmp_path):
        _fill(tmp_path, 5, segment_max_records=2)  # 2 sealed + 1 sealed tail
        live = RunJournal(tmp_path, segment_max_records=100)
        live.append("live-key", "test", {"value": 1})
        stats = journal_stats(tmp_path)
        assert stats["records"] == 6
        assert stats["sealed_segments"] == 3
        assert stats["active_segments"] == 1
        live.close()

    def test_read_only(self, tmp_path):
        _fill(tmp_path, 4, segment_max_records=2)
        # A torn sealed segment stays where it is: stats never quarantines.
        (tmp_path / "segment-0009.sealed.json").write_text('{"payload": {"ve')
        before = sorted(path.name for path in tmp_path.iterdir())
        journal_stats(tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == before
