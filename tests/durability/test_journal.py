"""The run journal: checksummed lines, one segment per process, replay."""

import json

import pytest

from repro.durability.atomic import checksummed_json, verify_checksummed
from repro.durability.faultpoints import (
    SimulatedCrash,
    arm_fault_point,
    disarm_fault_points,
)
from repro.durability.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    journal_stats,
)


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    disarm_fault_points()


def _lines(path):
    return path.read_bytes().split(b"\n")[:-1]


def _line(key, value, version=JOURNAL_SCHEMA_VERSION):
    return checksummed_json(
        {"key": key, "kind": "x", "v": version, "value": value}
    )


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.append("k1", "prediction", {"sql": "SELECT 1"})
        record = journal.replay("k1")
        assert record["kind"] == "prediction"
        assert record["value"] == {"sql": "SELECT 1"}
        assert journal.replayed == 1

    def test_append_is_idempotent(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.append("k", "prediction", 1)
        assert not journal.append("k", "prediction", 2)
        assert journal.replay("k")["value"] == 1
        assert journal.appended == 1

    def test_miss_returns_none(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.replay("absent") is None
        assert journal.replayed == 0

    def test_contains_and_len(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("a", "x", 1)
        journal.append("b", "x", 2)
        assert "a" in journal
        assert "c" not in journal
        assert len(journal) == 2

    def test_validation(self, tmp_path):
        # A journal takes only its directory: no rotation or fsync knob.
        with pytest.raises(TypeError):
            RunJournal(tmp_path, segment_max_records=3)
        with pytest.raises(TypeError):
            RunJournal(tmp_path, fsync=False)
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("x")
        with pytest.raises(OSError):
            RunJournal(not_a_directory)

    def test_reload_returns_records_as_appended(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("k", "x", {"b": [1, 2.5, None], "a": "é"})
        in_memory = journal.get("k")
        journal.close()
        assert RunJournal(tmp_path).get("k") == in_memory == {
            "key": "k",
            "kind": "x",
            "value": {"a": "é", "b": [1, 2.5, None]},
        }


class TestSegments:
    def test_one_segment_per_process(self, tmp_path):
        journal = RunJournal(tmp_path)
        for index in range(300):
            journal.append(f"k{index}", "x", index)
        journal.close()
        # No rotation: however many records, one process writes one file.
        assert [p.name for p in tmp_path.iterdir()] == ["segment-0000.jsonl"]
        assert len(_lines(tmp_path / "segment-0000.jsonl")) == 300
        assert len(RunJournal(tmp_path)) == 300

    def test_new_process_opens_fresh_segment(self, tmp_path):
        first = RunJournal(tmp_path)
        first.append("a", "x", 1)
        first.close()
        second = RunJournal(tmp_path)
        second.append("b", "x", 2)
        second.close()
        # The second writer never appends to the first's possibly-torn file.
        assert (tmp_path / "segment-0000.jsonl").exists()
        assert (tmp_path / "segment-0001.jsonl").exists()
        assert len(RunJournal(tmp_path)) == 2

    def test_reload_sees_sealed_and_active(self, tmp_path):
        # An earlier process's segment is finished for good; the segment a
        # live journal is still appending to is active. A reload sees both.
        first = RunJournal(tmp_path)
        for index in range(4):
            first.append(f"k{index}", "x", index)
        first.close()
        second = RunJournal(tmp_path)
        for index in range(4, 7):
            second.append(f"k{index}", "x", index)
        reloaded = RunJournal(tmp_path)
        second.close()
        assert len(reloaded) == 7
        assert reloaded.replay("k0")["value"] == 0
        assert reloaded.replay("k6")["value"] == 6

    def test_a_process_that_appends_nothing_adds_no_segment(self, tmp_path):
        first = RunJournal(tmp_path)
        first.append("a", "x", 1)
        first.close()
        replaying = RunJournal(tmp_path)
        assert not replaying.append("a", "x", 1)  # already journaled
        replaying.close()
        assert [p.name for p in tmp_path.iterdir()] == ["segment-0000.jsonl"]

    def test_later_segment_wins_ties(self, tmp_path):
        (tmp_path / "segment-0000.jsonl").write_text(
            _line("shared", "old") + "\n", encoding="utf-8"
        )
        (tmp_path / "segment-0001.jsonl").write_text(
            _line("shared", "new") + "\n", encoding="utf-8"
        )
        assert RunJournal(tmp_path).get("shared")["value"] == "new"

    def test_only_segment_files_are_read(self, tmp_path):
        # Names outside ``segment-NNNN.jsonl`` (the sealed and per-worker
        # files of earlier layouts among them) are not journal segments.
        for name in (
            "segment-0000.sealed.json",
            "segment-0000.w101.jsonl",
            "notes.jsonl",
        ):
            (tmp_path / name).write_text(_line(name, 1) + "\n")
        journal = RunJournal(tmp_path)
        assert len(journal) == 0
        journal.append("k", "x", 1)
        journal.close()
        assert (tmp_path / "segment-0000.jsonl").exists()


class TestCrashShapes:
    def test_torn_tail_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("a", "x", 1)
        journal.append("b", "x", 2)
        journal.close()
        path = tmp_path / "segment-0000.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(_line("c", 3)[:-9])  # torn write
        reloaded = RunJournal(tmp_path)
        assert len(reloaded) == 2
        assert "c" not in reloaded
        assert reloaded.skipped_lines == 1

    def test_durable_before_crash_point(self, tmp_path):
        """A record is on disk before its crash point can fire."""
        arm_fault_point("journal.append", on_hit=3, action="raise")
        journal = RunJournal(tmp_path)
        journal.append("a", "x", 1)
        journal.append("b", "x", 2)
        with pytest.raises(SimulatedCrash):
            journal.append("c", "x", 3)
        # No close: simulate the process dying right here.
        reloaded = RunJournal(tmp_path)
        assert len(reloaded) == 3
        assert reloaded.replay("c")["value"] == 3

    def test_a_damaged_line_costs_only_its_own_record(self, tmp_path):
        journal = RunJournal(tmp_path)
        for key in ("a", "b", "c"):
            journal.append(key, "x", key)
        journal.close()
        path = tmp_path / "segment-0000.jsonl"
        first, second, third = _lines(path)
        path.write_bytes(b"\n".join([first, b"rotted bytes", third, b""]))
        reloaded = RunJournal(tmp_path)
        assert [key for key in "abc" if key in reloaded] == ["a", "c"]
        assert reloaded.skipped_lines == 1

    def test_a_flipped_digit_replays_nothing_wrong(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("a", "x", {"rows": 123})
        journal.append("b", "x", {"rows": 456})
        journal.close()
        path = tmp_path / "segment-0000.jsonl"
        path.write_bytes(
            path.read_bytes().replace(b'"rows":123', b'"rows":124')
        )
        reloaded = RunJournal(tmp_path)
        assert reloaded.get("a") is None  # recomputed, never a wrong value
        assert reloaded.get("b")["value"] == {"rows": 456}

    def test_one_flipped_digit_costs_one_record_of_many(self, tmp_path):
        journal = RunJournal(tmp_path)
        for index in range(300):
            journal.append(f"k{index}", "x", {"tag": f"target-{index:04d}"})
        journal.close()
        (path,) = [
            p for p in tmp_path.iterdir() if b"target-0005" in p.read_bytes()
        ]
        path.write_bytes(
            path.read_bytes().replace(b"target-0005", b"target-0006")
        )
        reloaded = RunJournal(tmp_path)
        assert len(reloaded) == 299
        assert "k5" not in reloaded
        assert reloaded.get("k6")["value"] == {"tag": "target-0006"}

    def test_a_line_of_another_version_is_skipped(self, tmp_path):
        lines = [
            # Bare records, as version 1 wrote them, of versions 1 and 99,
            # and a checksummed line of version 99: none of them replays.
            json.dumps({"key": "v1", "kind": "x", "v": 1, "value": 1}),
            json.dumps({"key": "bare", "kind": "x", "v": 99, "value": 2}),
            _line("future", 3, version=99),
            _line("current", 4),
        ]
        (tmp_path / "segment-0000.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
        reloaded = RunJournal(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get("current")["value"] == 4
        assert reloaded.skipped_lines == 3

    def test_line_separators_inside_strings_stay_one_record(self, tmp_path):
        text = "one\u2028two\u2029three\x85four\nfive"
        journal = RunJournal(tmp_path)
        journal.append("a", "x", "before")
        journal.append("b", "x", text)
        journal.append("c", "x", "after")
        journal.close()
        reloaded = RunJournal(tmp_path)
        assert len(reloaded) == 3
        assert reloaded.get("b")["value"] == text
        assert reloaded.skipped_lines == 0
        assert journal_stats(tmp_path)["records"] == 3

    def test_a_lone_surrogate_replays_after_a_reload(self, tmp_path):
        # JSON carries "\ud800", so a request body or a backend's
        # response can; UTF-8 cannot encode it raw.
        value = {"question": "a\ud800b", "low": "\udfff"}
        journal = RunJournal(tmp_path)
        journal.append("\ud800", "x", value)
        journal.close()
        reloaded = RunJournal(tmp_path)
        assert reloaded.replay("\ud800")["value"] == value
        assert reloaded.skipped_lines == 0

    def test_a_split_surrogate_pair_reloads_as_its_character(self, tmp_path):
        # Concatenation can hold a pair as two code points; JSON reads
        # the pair back as the one character it encodes.
        value = {"question": "a\ud83d" + "\ude00b"}
        journal = RunJournal(tmp_path)
        journal.append("k", "x", value)
        journal.close()
        reloaded = RunJournal(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 0
        assert reloaded.replay("k")["value"] == {"question": "a\U0001f600b"}

    def test_a_resumed_crash_leaves_every_line_checksummed(self, tmp_path):
        arm_fault_point("journal.append", on_hit=4, action="raise")
        crashed = RunJournal(tmp_path)
        with pytest.raises(SimulatedCrash):
            for index in range(10):
                crashed.append(f"k{index}", "x", index)
        disarm_fault_points()
        resumed = RunJournal(tmp_path)
        for index in range(10):
            resumed.append(f"k{index}", "x", index)
        resumed.close()
        # Two processes appended: two segments, every line verified.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "segment-0000.jsonl",
            "segment-0001.jsonl",
        ]
        lines = [
            line for path in tmp_path.iterdir() for line in _lines(path)
        ]
        assert len(lines) == 10
        assert all(verify_checksummed(line) for line in lines)
        crashed.close()


class TestIntrospection:
    def test_stats_and_summary(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("a", "x", 1)
        journal.replay("a")
        stats = journal.stats()
        assert stats["records"] == 1
        assert stats["appended"] == 1
        assert stats["replayed"] == 1
        assert stats["skipped_lines"] == 0
        assert "1 appended, 1 replayed" in journal.summary()

    def test_records_are_canonical_json_lines(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("a", "x", {"b": 1, "a": 2})
        journal.close()
        data = (tmp_path / "segment-0000.jsonl").read_bytes()
        payload = {
            "key": "a",
            "kind": "x",
            "v": JOURNAL_SCHEMA_VERSION,
            "value": {"a": 2, "b": 1},
        }
        # One line: the checksummed envelope the atomic writer uses.
        assert data == (checksummed_json(payload) + "\n").encode()
        assert verify_checksummed(data) == payload
        assert json.loads(data)["algorithm"] == "sha256"
