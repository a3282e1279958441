"""Atomic checksummed JSON: round trips, corruption, quarantine."""

import json

import pytest

from repro.durability.atomic import (
    atomic_write_text,
    canonical_json,
    canonical_key,
    quarantine_file,
    read_checksummed_json,
    write_checksummed_json,
)


class TestCanonical:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_key_is_deterministic(self):
        payload = {"x": [1, 2, 3], "y": {"nested": True}}
        assert canonical_key(payload) == canonical_key(dict(payload))

    def test_canonical_key_differs_on_content(self):
        assert canonical_key({"a": 1}) != canonical_key({"a": 2})

    def test_a_split_surrogate_pair_keys_as_its_character(self):
        split = "a\ud83d" + "\ude00b"
        joined = "a\U0001f600b"
        assert canonical_key(split) == canonical_key(joined)
        assert canonical_json({"q": split}) == '{"q":"a\U0001f600b"}'

    @pytest.mark.parametrize(
        "payload",
        [
            {"a\ud83d\ude00": 1, "\uffff": 2},  # the pair sorts after
            ["\udc00\ud800\udc00", "\ud800\ud800", "\u00e9", "x\udfff"],
        ],
        ids=["pair-in-a-key", "lone-and-paired"],
    )
    def test_canonical_json_of_its_read_back_is_unchanged(self, payload):
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text
        text.encode("utf-8")  # and UTF-8 encodes it


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "deep")
        assert path.read_text() == "deep"


class TestChecksummedJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "doc.json"
        payload = {"version": 1, "items": [1, "two", None]}
        write_checksummed_json(path, payload, "test")
        assert read_checksummed_json(path) == payload

    def test_equal_payloads_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_checksummed_json(a, {"k": [1, 2], "j": "x"}, "test")
        write_checksummed_json(b, {"j": "x", "k": [1, 2]}, "test")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_is_none(self, tmp_path):
        assert read_checksummed_json(tmp_path / "absent.json") is None

    def test_corrupt_file_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{ not json")
        assert read_checksummed_json(path) is None
        assert not path.exists()
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        write_checksummed_json(path, {"v": 1}, "test")
        document = json.loads(path.read_text())
        document["payload"]["v"] = 2  # bit-rot the payload, keep checksum
        path.write_text(json.dumps(document))
        assert read_checksummed_json(path) is None
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_bytes_that_are_not_utf8_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        write_checksummed_json(path, {"name": "é"}, "test")
        data = bytearray(path.read_bytes())
        data[data.index("é".encode("utf-8"))] = 0xFF  # rot one byte
        path.write_bytes(bytes(data))
        assert read_checksummed_json(path) is None
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_unknown_algorithm_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        write_checksummed_json(path, {"v": 1}, "test")
        document = json.loads(path.read_text())
        document["algorithm"] = "md5"
        path.write_text(json.dumps(document))
        assert read_checksummed_json(path) is None
        assert (tmp_path / "doc.json.corrupt").exists()

    def test_plain_json_without_envelope_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"just": "data"}')
        assert read_checksummed_json(path) is None
        assert (tmp_path / "doc.json.corrupt").exists()


class TestQuarantine:
    def test_moves_aside(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("x")
        target = quarantine_file(path)
        assert target == tmp_path / "bad.json.corrupt"
        assert not path.exists()

    def test_suffix_increments_on_collision(self, tmp_path):
        for _ in range(3):
            path = tmp_path / "bad.json"
            path.write_text("x")
            quarantine_file(path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "bad.json.corrupt",
            "bad.json.corrupt-1",
            "bad.json.corrupt-2",
        ]

    def test_quarantined_files_escape_json_globs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("x")
        quarantine_file(path)
        assert list(tmp_path.glob("*.json")) == []

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "absent.json") is None
