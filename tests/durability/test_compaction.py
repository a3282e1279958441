"""Nothing to compact: one segment per process, and ``journal stats``.

Every journal line is already checksummed and each process that appends
writes one segment, so there is no second format to fold and no rotation
to merge: ``fisql-repro journal compact`` is gone (it exits 2, see
``tests/test_util_and_cli.py``). ``journal stats`` reads a directory with
the journal's own reader, and never writes.
"""

from __future__ import annotations

import pytest

from repro.durability import RunJournal, journal_stats


def _fill(directory, count, prefix="key"):
    journal = RunJournal(directory)
    for index in range(count):
        journal.append(f"{prefix}-{index:03d}", "test", {"value": index})
    journal.close()


class TestJournalStats:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            journal_stats(tmp_path / "nope")

    def test_counts_segments_records_and_skipped_lines(self, tmp_path):
        _fill(tmp_path, 5, prefix="first")
        live = RunJournal(tmp_path)
        live.append("live-key", "test", {"value": 1})
        with open(tmp_path / "segment-0000.jsonl", "ab") as handle:
            handle.write(b'{"algorithm":"sha256","checksum":"to')  # torn
        assert journal_stats(tmp_path) == {
            "records": 6,
            "segments": 2,
            "skipped_lines": 1,
        }
        live.close()

    def test_read_only(self, tmp_path):
        _fill(tmp_path, 4)
        # A damaged line stays where it is: stats never rewrites or moves.
        (tmp_path / "segment-0009.jsonl").write_text('{"payload": {"ve')
        before = {
            path.name: path.read_bytes() for path in tmp_path.iterdir()
        }
        assert journal_stats(tmp_path)["skipped_lines"] == 1
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert after == before
