"""The one fault hook: exact hits, every action, env arming, torn renames.

The hook is the foundation the crash-resume and degradation tests stand
on, so its own contract is pinned precisely. ``TestArming`` and
``TestEnvArming`` drive the disk actions (exact hit counts, sticky
semantics, errno mapping, env-var arming); ``TestCrashPoints`` drives the
crash action ``raise`` at the journal's ``journal.append`` site;
``TestTornReplace`` checks the torn-replace action, which leaves real
corrupt bytes for the checksummed reader to quarantine. The env default,
``kill9``, is proven end to end by ``test_crash_resume.py``, whose CLI
subprocess dies with SIGKILL.
"""

from __future__ import annotations

import errno

import pytest

from repro.durability.atomic import (
    atomic_write_text,
    read_checksummed_json,
    write_checksummed_json,
)
from repro.durability.faultpoints import (
    CRASH_POINT_ENV,
    SimulatedCrash,
    arm_fault_point,
    disarm_fault_points,
    fault_hits,
    fault_point,
)


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    monkeypatch.delenv(CRASH_POINT_ENV, raising=False)
    disarm_fault_points()
    yield
    disarm_fault_points()


class TestArming:
    def test_unarmed_is_a_noop(self):
        for _ in range(100):
            fault_point("disk.journal_append")
        assert fault_hits() == {}

    def test_fails_exactly_the_named_hit(self):
        arm_fault_point("disk.journal_append", on_hit=3, action="enospc")
        fault_point("disk.journal_append")
        fault_point("disk.journal_append")
        with pytest.raises(OSError) as excinfo:
            fault_point("disk.journal_append")
        assert excinfo.value.errno == errno.ENOSPC
        assert "injected" in str(excinfo.value)
        # Not sticky: the disk "recovers" after the one failure.
        fault_point("disk.journal_append")
        assert fault_hits() == {"disk.journal_append": 4}

    def test_sticky_keeps_failing(self):
        arm_fault_point(
            "disk.atomic_write", on_hit=2, action="eio", sticky=True
        )
        fault_point("disk.atomic_write")
        for _ in range(3):
            with pytest.raises(OSError):
                fault_point("disk.atomic_write")
        assert fault_hits() == {"disk.atomic_write": 4}

    def test_sites_are_independent(self):
        arm_fault_point("disk.replace", on_hit=1, action="enospc")
        fault_point("disk.journal_append")  # different site: untouched
        with pytest.raises(OSError):
            fault_point("disk.replace")
        assert fault_hits() == {"disk.replace": 1}

    def test_error_names_map_to_errnos(self):
        for action, code in (
            ("enospc", errno.ENOSPC),
            ("eio", errno.EIO),
            ("erofs", errno.EROFS),
            ("emfile", errno.EMFILE),
            ("torn", errno.EIO),
        ):
            disarm_fault_points()
            arm_fault_point("disk.atomic_write", action=action)
            with pytest.raises(OSError) as excinfo:
                fault_point("disk.atomic_write")
            assert excinfo.value.errno == code
            assert "injected at disk.atomic_write" in str(excinfo.value)

    def test_bad_arming_is_rejected(self):
        with pytest.raises(ValueError):
            arm_fault_point("disk.journal_append", on_hit=0)
        with pytest.raises(ValueError):
            arm_fault_point("disk.journal_append", action="gremlins")

    def test_disarm_resets_counters(self):
        arm_fault_point("disk.journal_append", on_hit=1, action="enospc")
        with pytest.raises(OSError):
            fault_point("disk.journal_append")
        disarm_fault_points()
        fault_point("disk.journal_append")  # unarmed again: no-op, no counting
        assert fault_hits() == {}


class TestCrashPoints:
    def test_unarmed_is_noop(self):
        fault_point("journal.append")  # must not raise
        assert fault_hits() == {}

    def test_fires_on_exact_hit(self):
        arm_fault_point("journal.append", on_hit=3, action="raise")
        fault_point("journal.append")
        fault_point("journal.append")
        with pytest.raises(SimulatedCrash) as info:
            fault_point("journal.append")
        assert info.value.point == "journal.append"
        assert info.value.hits == 3

    def test_fires_only_once(self):
        arm_fault_point("journal.append", on_hit=1, action="raise")
        with pytest.raises(SimulatedCrash):
            fault_point("journal.append")
        fault_point("journal.append")  # hit 2 != on_hit 1: no-op
        assert fault_hits() == {"journal.append": 2}

    def test_other_points_unaffected(self):
        arm_fault_point("journal.append", on_hit=1, action="raise")
        fault_point("disk.journal_append")
        assert fault_hits() == {"journal.append": 0}

    def test_disarm_resets(self):
        arm_fault_point("journal.append", on_hit=1, action="raise")
        disarm_fault_points()
        fault_point("journal.append")

    def test_simulated_crash_evades_except_exception(self):
        arm_fault_point("journal.append", action="raise")
        with pytest.raises(BaseException):
            try:
                fault_point("journal.append")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must not be an Exception")

    def test_validation(self):
        with pytest.raises(ValueError):
            arm_fault_point("journal.append", on_hit=0)
        with pytest.raises(ValueError):
            arm_fault_point("journal.append", action="explode")
        with pytest.raises(ValueError):  # the old exit action is gone
            arm_fault_point("journal.append", action="exit")

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv(CRASH_POINT_ENV, "journal.append:2:raise")
        fault_point("journal.append")
        with pytest.raises(SimulatedCrash):
            fault_point("journal.append")

    def test_env_other_point_ignored(self, monkeypatch):
        monkeypatch.setenv(CRASH_POINT_ENV, "journal.append:1:raise")
        fault_point("disk.journal_append")
        assert fault_hits() == {}

    def test_env_malformed_count_ignored(self, monkeypatch):
        # The action is spelled out, so a parser that misread the count
        # would raise here rather than SIGKILL the test process.
        monkeypatch.setenv(CRASH_POINT_ENV, "journal.append:notanumber:raise")
        fault_point("journal.append")
        assert fault_hits() == {}


class TestEnvArming:
    def test_env_spec_arms_a_site(self, monkeypatch):
        monkeypatch.setenv(CRASH_POINT_ENV, "disk.journal_append:2:eio")
        fault_point("disk.journal_append")
        with pytest.raises(OSError) as excinfo:
            fault_point("disk.journal_append")
        assert excinfo.value.errno == errno.EIO
        fault_point("disk.journal_append")  # not sticky

    def test_env_spec_other_site_is_noop(self, monkeypatch):
        monkeypatch.setenv(CRASH_POINT_ENV, "disk.journal_append:1:eio")
        fault_point("disk.atomic_write")
        assert fault_hits() == {}

    def test_malformed_env_spec_is_ignored(self, monkeypatch):
        for spec in (
            "disk.journal_append:banana",
            "disk.journal_append:0:eio",
            "disk.journal_append:1:gremlins",
            "disk.journal_append:1:eio:sticky",
        ):
            monkeypatch.setenv(CRASH_POINT_ENV, spec)
            fault_point("disk.journal_append")
        assert fault_hits() == {}

    def test_an_in_process_arm_shadows_the_env(self, monkeypatch):
        # An env arm that won would raise OSError on the first hit.
        monkeypatch.setenv(CRASH_POINT_ENV, "journal.append:1:eio")
        arm_fault_point("journal.append", on_hit=2, action="raise")
        fault_point("journal.append")
        with pytest.raises(SimulatedCrash):
            fault_point("journal.append")


class TestTornReplace:
    def test_torn_replace_leaves_corrupt_bytes(self, tmp_path):
        """A torn rename leaves a half-written target; the checksummed
        reader must quarantine it rather than load it."""
        target = tmp_path / "doc.json"
        write_checksummed_json(target, {"rows": list(range(64))}, "test")
        intact = target.read_bytes()

        arm_fault_point("disk.replace", action="torn")
        new = {"rows": list(range(128))}
        assert write_checksummed_json(target, new, "test") is None

        torn = target.read_bytes()
        assert torn != intact
        assert 0 < len(torn)
        disarm_fault_points()
        assert read_checksummed_json(target, kind="test") is None
        assert not target.exists()  # quarantined aside
        assert list(tmp_path.glob("doc.json.corrupt*"))

    def test_atomic_write_fault_preserves_the_old_file(self, tmp_path):
        """ENOSPC at the temp-file stage must leave the target intact."""
        target = tmp_path / "doc.json"
        atomic_write_text(target, "old\n")
        arm_fault_point("disk.atomic_write", action="enospc")
        with pytest.raises(OSError):
            atomic_write_text(target, "new\n")
        assert target.read_text() == "old\n"
        assert not list(tmp_path.glob(".doc.json.tmp*"))
