"""The write-ahead run journal: completed work items, fsync'd as they land.

A long sweep (`fisql-repro run all --scale full`) is thousands of
independent, deterministic work items: one prediction per benchmark
example, one correction session per annotated error. The journal makes
each of them durable the moment it completes:

* ``append(key, kind, value)`` writes one canonical-JSON line to the
  **active segment** (``segment-NNNN.jsonl``), flushes, and ``fsync``'s —
  the record survives kill -9 from that point on. Keys are
  :func:`~repro.durability.atomic.canonical_key` digests, the same
  construction the completion cache uses for prompts.
* When the active segment reaches ``segment_max_records`` it is
  **sealed**: rewritten as one checksummed canonical-JSON document
  (``segment-NNNN.sealed.json``) via atomic temp-file + ``os.replace``,
  and the raw ``.jsonl`` is removed. Sealed segments are verified on
  load; corrupt ones are quarantined and their records simply recomputed.
* A new process always opens a **fresh** active segment (max index + 1):
  it never appends after a possibly-torn tail from a crashed writer.

Loading tolerates every crash shape: a torn final line in an active
segment is skipped (everything before it replays), a half-written sealed
segment was never visible (the replace is atomic), and a corrupt sealed
file quarantines instead of raising.

Replay is key-based, not order-based: the resumed run recomputes the same
work list in the same order, and each item either replays from the journal
or is computed and appended — so the merged result is byte-identical to an
uninterrupted run regardless of which thread journaled what when.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Optional, TextIO, Union

from repro import obs
from repro.chaos.diskfaults import disk_fault
from repro.durability.atomic import (
    canonical_json,
    quarantine_file,
    read_checksummed_json,
    write_checksummed_json,
)
from repro.durability.crashpoints import crash_point

#: Bump when the journal record layout changes (old journals are ignored).
JOURNAL_SCHEMA_VERSION = 1

#: Records per segment before the active file is sealed.
DEFAULT_SEGMENT_MAX_RECORDS = 256

#: Segment names. The writer never adds the optional ``.wPID`` tag; it is
#: accepted so journals written by older per-process sweep workers still
#: load, resume and compact.
_ACTIVE_RE = re.compile(r"^segment-(\d{4})(?:\.w(\d+))?\.jsonl$")
_SEALED_RE = re.compile(r"^segment-(\d{4})(?:\.w(\d+))?\.sealed\.json$")


class RunJournal:
    """Append-only, crash-safe store of completed run items.

    Thread-safe: evaluation shards and parallel correction loops append
    from worker threads. Replay hits and appends are counted both on the
    instance (``replayed``/``appended``, always available for the CLI
    summary) and as ``journal.*`` obs counters (when instrumented).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_max_records: int = DEFAULT_SEGMENT_MAX_RECORDS,
        fsync: bool = True,
    ) -> None:
        if segment_max_records < 1:
            raise ValueError(
                f"segment_max_records must be >= 1: {segment_max_records}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._segment_max = segment_max_records
        self._fsync = fsync
        self._lock = threading.Lock()
        self._records: dict[str, dict] = {}
        self._active_handle: Optional[TextIO] = None
        self._active_records: list[dict] = []
        self.appended = 0
        self.replayed = 0
        self.sealed = 0
        self.quarantined = 0
        # A failed disk write (ENOSPC, EIO, read-only remount) flips the
        # journal into degraded read-only mode: the sweep keeps running
        # on in-memory records, nothing new is persisted, and the losses
        # are counted instead of crashing the run.
        self._degraded = False
        self.degraded_writes = 0
        self._next_index = self._load()

    # -- introspection --------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def degraded(self) -> bool:
        """True once a disk fault flipped the journal read-only."""
        return self._degraded

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    def stats(self) -> dict:
        with self._lock:
            return {
                "records": len(self._records),
                "appended": self.appended,
                "replayed": self.replayed,
                "sealed": self.sealed,
                "quarantined": self.quarantined,
                "degraded": self._degraded,
                "degraded_writes": self.degraded_writes,
            }

    def summary(self) -> str:
        """One status line for the CLI (stderr, not part of artifacts)."""
        stats = self.stats()
        line = (
            f"{stats['appended']} appended, {stats['replayed']} replayed, "
            f"{stats['records']} total records in {self._directory}"
        )
        if stats["degraded"]:
            line += (
                f" [DEGRADED: {stats['degraded_writes']} records not "
                "persisted after a disk fault]"
            )
        return line

    # -- load -----------------------------------------------------------------

    def _load(self) -> int:
        """Replay every durable record; returns the next segment index."""
        max_index = -1
        sealed_paths: list[tuple[int, Path]] = []
        active_paths: list[tuple[int, Path]] = []
        for path in self._directory.iterdir():
            match = _SEALED_RE.match(path.name)
            if match:
                sealed_paths.append((int(match.group(1)), path))
                continue
            match = _ACTIVE_RE.match(path.name)
            if match:
                active_paths.append((int(match.group(1)), path))
        for index, path in sorted(sealed_paths) + sorted(active_paths):
            max_index = max(max_index, index)
        for index, path in sorted(sealed_paths):
            payload = read_checksummed_json(path, kind="journal_segment")
            if (
                not isinstance(payload, dict)
                or payload.get("version") != JOURNAL_SCHEMA_VERSION
                or not isinstance(payload.get("records"), list)
            ):
                # read_checksummed_json already quarantined checksum-level
                # corruption; a valid envelope with a stale/invalid payload
                # is quarantined here.
                if payload is not None:
                    quarantine_file(path)
                    obs.count(
                        "durability.quarantined", kind="journal_segment"
                    )
                self.quarantined += 1
                continue
            for record in payload["records"]:
                self._absorb(record)
        for index, path in sorted(active_paths):
            self._load_active(path)
        return max_index + 1

    def _load_active(self, path: Path) -> None:
        """Replay an append-mode segment, tolerating a torn final line."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A torn tail from a crashed writer. Everything before it
                # was newline-terminated and fsync'd; stop here.
                break
            self._absorb(record)

    def _absorb(self, record: object) -> None:
        if (
            isinstance(record, dict)
            and isinstance(record.get("key"), str)
            and isinstance(record.get("kind"), str)
            and "value" in record
        ):
            self._records[record["key"]] = record

    # -- replay ---------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The stored record for a key (no counters), or None."""
        with self._lock:
            return self._records.get(key)

    def replay(self, key: str) -> Optional[dict]:
        """The stored record for a key, counting the hit; None on miss."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                return None
            self.replayed += 1
        obs.count("journal.replayed", kind=record["kind"])
        return record

    # -- append ---------------------------------------------------------------

    def append(self, key: str, kind: str, value: object) -> bool:
        """Durably record one completed item; False when already present.

        The line is flushed and fsync'd before returning: once ``append``
        comes back, kill -9 cannot lose the record.

        When a serve request context is active the correlation id is
        stamped onto the record (``request_id``); batch runs carry no
        context, so their journal bytes are unchanged.
        """
        payload = {"key": key, "kind": kind, "v": JOURNAL_SCHEMA_VERSION,
                   "value": value}
        request_id = obs.current_request_id()
        if request_id is not None:
            payload["request_id"] = request_id
        line = canonical_json(payload)
        with self._lock:
            if key in self._records:
                return False
            record = {"key": key, "kind": kind, "value": value}
            if request_id is not None:
                record["request_id"] = request_id
            durable = not self._degraded
            if durable:
                try:
                    disk_fault("disk.journal_append")
                    handle = self._ensure_active_locked()
                    handle.write(line + "\n")
                    handle.flush()
                    if self._fsync:
                        os.fsync(handle.fileno())
                except OSError as error:
                    durable = False
                    self._degrade_locked("append", error)
            # The run continues on the in-memory record either way; only
            # durability is lost, and that loss is counted.
            self._records[key] = record
            if durable:
                self._active_records.append(record)
                self.appended += 1
                crash_point("journal.append")
                if len(self._active_records) >= self._segment_max:
                    self._seal_active_locked()
            else:
                self.degraded_writes += 1
        if durable:
            obs.count("journal.appended", kind=kind)
            obs.event("journal.append", key=key, kind=kind)
        else:
            obs.count("durability.degraded", kind="journal")
        return True

    def _degrade_locked(self, op: str, error: OSError) -> None:
        """Flip to degraded read-only mode after a failed disk write."""
        first = not self._degraded
        self._degraded = True
        if self._active_handle is not None:
            try:
                self._active_handle.close()
            except OSError:
                pass
            self._active_handle = None
        if first:
            obs.event(
                "journal.degraded",
                op=op,
                error=f"{type(error).__name__}: {error}",
            )

    def _ensure_active_locked(self) -> TextIO:
        if self._active_handle is None:
            name = f"segment-{self._next_index:04d}.jsonl"
            path = self._directory / name
            self._active_handle = open(path, "a", encoding="utf-8")
            self._active_path = path
            self._next_index += 1
        return self._active_handle

    def _seal_active_locked(self) -> None:
        """Rewrite the active segment as a checksummed sealed document."""
        if self._active_handle is None:
            return
        crash_point("journal.seal")
        self._active_handle.close()
        self._active_handle = None
        sealed_path = self._active_path.with_name(
            self._active_path.name.replace(".jsonl", ".sealed.json")
        )
        try:
            write_checksummed_json(
                sealed_path,
                {
                    "version": JOURNAL_SCHEMA_VERSION,
                    "records": list(self._active_records),
                },
                fsync=self._fsync,
            )
        except OSError as error:
            # The raw .jsonl stays on disk and replays on the next load,
            # so a failed seal loses nothing already fsync'd — but the
            # disk is clearly unwell: stop writing.
            self._degrade_locked("seal", error)
            obs.count("durability.degraded", kind="journal_seal")
            return
        # The sealed copy is durable; the raw segment is now redundant.
        try:
            os.unlink(self._active_path)
        except OSError:
            pass
        self._active_records = []
        self.sealed += 1
        obs.count("journal.segments_sealed")

    def seal(self) -> None:
        """Seal the current active segment now (e.g. at end of run)."""
        with self._lock:
            self._seal_active_locked()

    def close(self) -> None:
        """Close the active handle; records already on disk stay durable."""
        with self._lock:
            if self._active_handle is not None:
                self._active_handle.close()
                self._active_handle = None


def compact_journal(directory: Union[str, Path]) -> dict:
    """Merge all sealed segments into one checksummed segment.

    Long journal directories accumulate sealed segments forever (every 256
    records by default). Compaction rewrites them as a single sealed
    segment and removes the originals. It is crash-safe at every step:

    * The merged segment is written (atomic replace + fsync) at an index
      above every existing segment **before** any original is unlinked, so
      a crash mid-compaction leaves duplicates, never gaps.
    * Replay is key-based and later-segments-win, so duplicated records
      absorb idempotently on the next load — and the merged segment, being
      the highest index, wins ties exactly as the originals would have.
    * Active (``.jsonl``) segments are left untouched: they may have a
      live writer.

    Corrupt sealed segments quarantine exactly as they would on load.
    Returns a stats dict: ``segments`` merged, ``records`` kept,
    ``quarantined``, and the ``output`` filename (None when there was
    nothing to compact).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"journal directory not found: {directory}")
    max_index = -1
    sealed_paths: list[tuple[int, Path]] = []
    for path in directory.iterdir():
        match = _SEALED_RE.match(path.name)
        if match:
            sealed_paths.append((int(match.group(1)), path))
            max_index = max(max_index, int(match.group(1)))
            continue
        match = _ACTIVE_RE.match(path.name)
        if match:
            max_index = max(max_index, int(match.group(1)))
    sealed_paths.sort()
    records: dict[str, dict] = {}
    sources: list[Path] = []
    quarantined = 0
    for _index, path in sealed_paths:
        payload = read_checksummed_json(path, kind="journal_segment")
        if (
            not isinstance(payload, dict)
            or payload.get("version") != JOURNAL_SCHEMA_VERSION
            or not isinstance(payload.get("records"), list)
        ):
            if payload is not None:
                quarantine_file(path)
                obs.count("durability.quarantined", kind="journal_segment")
            quarantined += 1
            continue
        for record in payload["records"]:
            if (
                isinstance(record, dict)
                and isinstance(record.get("key"), str)
                and isinstance(record.get("kind"), str)
                and "value" in record
            ):
                records[record["key"]] = record
        sources.append(path)
    stats = {
        "segments": len(sources),
        "records": len(records),
        "quarantined": quarantined,
        "output": None,
    }
    if len(sources) < 2:
        # Zero or one healthy segment: nothing to merge.
        return stats
    output = directory / f"segment-{max_index + 1:04d}.sealed.json"
    write_checksummed_json(
        output,
        {"version": JOURNAL_SCHEMA_VERSION, "records": list(records.values())},
        fsync=True,
    )
    for path in sources:
        try:
            os.unlink(path)
        except OSError:
            pass
    obs.count("journal.segments_compacted", n=len(sources))
    stats["output"] = output.name
    return stats


def journal_stats(directory: Union[str, Path]) -> dict:
    """Read-only record and segment counts for a journal directory.

    Unlike loading a :class:`RunJournal`, this never quarantines, opens a
    new segment, or otherwise writes — safe to point at a directory with a
    live writer. Records are counted by unique key, matching what replay
    would see.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"journal directory not found: {directory}")
    sealed = active = 0
    keys: set = set()
    for path in sorted(directory.iterdir()):
        if _SEALED_RE.match(path.name):
            sealed += 1
            payload = read_checksummed_json(
                path, kind="journal_segment", quarantine=False
            )
            if isinstance(payload, dict) and isinstance(
                payload.get("records"), list
            ):
                for record in payload["records"]:
                    if isinstance(record, dict) and isinstance(
                        record.get("key"), str
                    ):
                        keys.add(record["key"])
        elif _ACTIVE_RE.match(path.name):
            active += 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn tail from a crashed writer
                        if isinstance(record, dict) and isinstance(
                            record.get("key"), str
                        ):
                            keys.add(record["key"])
            except OSError:
                pass
    return {
        "sealed_segments": sealed,
        "active_segments": active,
        "records": len(keys),
    }
