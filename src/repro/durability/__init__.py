"""``repro.durability`` — crash-safe persistence for the FISQL stack.

:mod:`repro.resilience` (PR 2) covers *call-level* faults: a flaky LLM
backend is retried, deadlined, and circuit-broken. This package covers the
next fault domain up — **process death and torn files** — so that a killed
``fisql-repro run`` resumes instead of redoing hours of sweep work, and a
crash mid-write can never corrupt a cache, session, or journal file.

Layers:

* :mod:`repro.durability.atomic` — the shared atomic-write + checksum
  primitive. Every JSON file the stack persists (completion cache,
  session store, semantic cache, suites) goes through temp-file +
  ``fsync`` + ``os.replace``; readers verify a canonical-JSON checksum
  and *quarantine* torn or corrupt files (rename to ``*.corrupt``)
  instead of crashing or silently mis-loading. The writer also holds the
  one degrade rule: a write the disk refuses returns None and counts
  ``durability.degraded{kind}``, so a full disk costs durability, never
  the run.
* :mod:`repro.durability.journal` — the write-ahead **run journal**: each
  completed eval item / correction session is appended as one fsync'd
  line in the same checksummed envelope, keyed by the same
  canonical-hash construction the completion cache uses; a line that
  fails its checksum or version is skipped and its item recomputes.
  ``fisql-repro run --journal DIR --resume`` skips journaled items and
  merges to byte-identical artifacts.
* :mod:`repro.durability.suites` — persisted SPIDER/AEP suites: the
  generated benchmark (databases + splits + demos) serialized once so
  resumes and warm starts skip the dominant ``harness.suite_build_ms``.
* :mod:`repro.durability.faultpoints` — the one fault hook: fail the
  Nth hit of a named site by SIGKILL, :class:`SimulatedCrash`, or a real
  ``OSError`` (``FISQL_CRASH_POINT=journal.append:12`` kills the process
  on the 12th journal append; ``disk.atomic_write:1:enospc`` fills the
  disk under the first whole-file write), the chaos half of the
  crash-recovery and degradation proofs.
"""

from repro.durability.atomic import (
    atomic_write_text,
    canonical_json,
    canonical_key,
    quarantine_file,
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
from repro.durability.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    journal_stats,
)
from repro.durability.suites import (
    SUITE_SCHEMA_VERSION,
    load_suites,
    save_suites,
    suite_path,
)

__all__ = [
    "CRASH_POINT_ENV",
    "JOURNAL_SCHEMA_VERSION",
    "RunJournal",
    "SUITE_SCHEMA_VERSION",
    "SimulatedCrash",
    "arm_fault_point",
    "atomic_write_text",
    "canonical_json",
    "canonical_key",
    "disarm_fault_points",
    "fault_hits",
    "fault_point",
    "journal_stats",
    "load_suites",
    "quarantine_file",
    "read_checksummed_json",
    "save_suites",
    "suite_path",
    "write_checksummed_json",
]
