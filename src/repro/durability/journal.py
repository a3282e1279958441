"""The write-ahead run journal: completed work items, fsync'd as they land.

A long sweep (`fisql-repro run all --scale full`) is thousands of
independent, deterministic work items: one prediction per benchmark
example, one correction session per annotated error. The journal makes
each of them durable the moment it completes.

The journal has one format. Every record is one line: the
``{algorithm, checksum, payload}`` envelope that
:mod:`repro.durability.atomic` writes for whole files, in canonical JSON,
whose payload holds the record's ``key``, ``kind`` and ``value`` and the
schema version ``v``. ``append(key, kind, value)`` writes that line to
its process's **segment** (``segment-NNNN.jsonl``), flushes, and
``fsync``'s: the record survives kill -9 from that point on. Keys are
:func:`~repro.durability.atomic.canonical_key` digests, the same
construction the completion cache uses for prompts.

A process opens one fresh segment (max index + 1) at its first append and
writes only to it, so it never appends after another writer's
possibly-torn tail, and a process that appends nothing adds no file.

One reader serves both :class:`RunJournal` and :func:`journal_stats`. It
reads each segment by the line rule the semantic cache's question log
shares (:func:`~repro.durability.atomic.read_checksummed_lines`: split on
``\\n`` alone, verify each line), skips and counts every line whose
envelope, checksum or version fails, and reads on. Damage costs
exactly the records on the damaged lines, and a torn tail from a killed
writer is one bad last line.

Replay is key-based, not order-based: the resumed run recomputes the same
work list in the same order, and each item either replays from the journal
or is computed and appended — so the merged result is byte-identical to an
uninterrupted run regardless of which thread journaled what when.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import BinaryIO, Optional, Union

from repro import obs
from repro.durability.atomic import checksummed_json, read_checksummed_lines
from repro.durability.faultpoints import fault_point

#: Bump when the journal record layout changes: a line of another
#: version is skipped, and its item recomputes.
JOURNAL_SCHEMA_VERSION = 2

_SEGMENT_RE = re.compile(r"^segment-(\d{4,})\.jsonl$")


def _record(payload: object) -> Optional[dict]:
    """The record a verified line's payload holds; None when it fails."""
    if not isinstance(payload, dict):
        return None
    version = payload.pop("v", None)
    if (
        version != JOURNAL_SCHEMA_VERSION
        or not isinstance(payload.get("key"), str)
        or not isinstance(payload.get("kind"), str)
        or "value" not in payload
    ):
        return None
    return payload


def _read(directory: Path) -> tuple[dict, int, int, int]:
    """Every verified record in a journal directory, read-only.

    Returns ``(records by key, segments, skipped lines, next segment
    index)``. A later segment wins a key that two segments hold.
    """
    if not directory.is_dir():
        raise FileNotFoundError(f"journal directory not found: {directory}")
    segments = sorted(
        (int(match.group(1)), path)
        for path in directory.iterdir()
        if (match := _SEGMENT_RE.match(path.name))
    )
    records: dict[str, dict] = {}
    skipped = 0
    for _index, path in segments:
        for payload in read_checksummed_lines(path):
            record = _record(payload)
            if record is None:
                skipped += 1
            else:
                records[record["key"]] = record
    next_index = segments[-1][0] + 1 if segments else 0
    return records, len(segments), skipped, next_index


def journal_stats(directory: Union[str, Path]) -> dict:
    """Record, segment and skipped-line counts for a journal directory.

    It reads as a :class:`RunJournal` loads, but never writes, so it is
    safe to point at a directory with a live writer. Records are counted
    by unique key, matching what replay would see.
    """
    records, segments, skipped, _next = _read(Path(directory))
    return {
        "records": len(records),
        "segments": segments,
        "skipped_lines": skipped,
    }


class RunJournal:
    """Append-only, crash-safe store of completed run items.

    Thread-safe: evaluation sweeps and correction loops append from
    worker threads. Replay hits and appends are counted both on the
    instance (``replayed``/``appended``, always available for the CLI
    summary) and as ``journal.*`` obs counters (when instrumented).
    ``skipped_lines`` counts the lines the load could not verify.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._records, _segments, self.skipped_lines, self._index = _read(
            self._directory
        )
        self._lock = threading.Lock()
        self._handle: Optional[BinaryIO] = None
        self.appended = 0
        self.replayed = 0
        # A failed disk write (ENOSPC, EIO, read-only remount) flips the
        # journal into degraded read-only mode: the sweep keeps running
        # on in-memory records, nothing new is persisted, and the losses
        # are counted instead of crashing the run.
        self._degraded = False
        self.degraded_writes = 0

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
                "skipped_lines": self.skipped_lines,
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
        record = {"key": key, "kind": kind, "value": value}
        request_id = obs.current_request_id()
        if request_id is not None:
            record["request_id"] = request_id
        line = checksummed_json({**record, "v": JOURNAL_SCHEMA_VERSION})
        data = (line + "\n").encode("utf-8")
        with self._lock:
            if key in self._records:
                return False
            durable = not self._degraded
            if durable:
                try:
                    fault_point("disk.journal_append")
                    if self._handle is None:
                        self._handle = open(self._segment_path(), "ab")
                    self._handle.write(data)
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError as error:
                    durable = False
                    self._degrade_locked(error)
            # The run continues on the in-memory record either way; only
            # durability is lost, and that loss is counted.
            self._records[key] = record
            if durable:
                self.appended += 1
                fault_point("journal.append")
            else:
                self.degraded_writes += 1
        if durable:
            obs.count("journal.appended", kind=kind)
            obs.event("journal.append", key=key, kind=kind)
        else:
            obs.count("durability.degraded", kind="journal")
        return True

    def _segment_path(self) -> Path:
        """This journal's own segment, one past every segment it loaded."""
        return self._directory / f"segment-{self._index:04d}.jsonl"

    def _degrade_locked(self, error: OSError) -> None:
        """Flip to degraded read-only mode after a failed disk write."""
        first = not self._degraded
        self._degraded = True
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        if first:
            obs.event(
                "journal.degraded",
                op="append",
                error=f"{type(error).__name__}: {error}",
            )

    def close(self) -> None:
        """Close the segment; records already on disk stay durable."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
