"""Rotating structured JSONL event log (the serve ``--log-dir`` sink).

One canonical-JSON object per line. Every event carries:

* ``ts`` — wall-clock seconds (injectable clock, so tests are stable),
* ``event`` — the event name (``serve.request``, ``cache.miss``,
  ``llm.retry``, ``journal.append``, ...),
* ``request_id`` — stamped automatically from the correlation context
  (:mod:`repro.obs.context`) when a request is being served; omitted
  otherwise, so batch-run logs don't grow a null field.

Rotation is size-based: the active file is ``events.jsonl``; once a write
pushes it past ``max_bytes`` it is renamed (``os.replace``, the same
atomic primitive as :mod:`repro.durability.atomic`) to
``events-NNNNNN.jsonl`` and a fresh active file is opened. At most
``max_files`` rotated files are kept; older ones are deleted. Lines are
flushed on every event — the log is an operational surface, tail -f must
see events as they happen — but not fsync'd: durability is the journal's
job, not the event log's.
"""

from __future__ import annotations

import os
import re
import threading
import time
from pathlib import Path
from typing import Callable, Optional, TextIO, Union

from repro.durability.atomic import canonical_json
from repro.obs.context import current_request_id

#: Active file name inside a ``--log-dir`` directory.
LOG_FILENAME = "events.jsonl"

#: Default rotation threshold (bytes) and retained rotated files.
DEFAULT_MAX_BYTES = 10 * 1024 * 1024
DEFAULT_MAX_FILES = 5

_ROTATED_RE = re.compile(r"^events-(\d{6})\.jsonl$")


class StructuredLog:
    """Thread-safe, size-rotated JSONL event sink."""

    def __init__(
        self,
        directory: Union[str, Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1: {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1: {max_files}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._max_bytes = max_bytes
        self._max_files = max_files
        self._clock = clock
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None
        self._size = 0
        self._next_rotation = self._scan_rotations() + 1
        self.events = 0
        self.rotations = 0

    # -- introspection --------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def path(self) -> Path:
        """The active log file."""
        return self._directory / LOG_FILENAME

    def files(self) -> list[Path]:
        """Every log file, oldest rotation first, active file last."""
        rotated = sorted(
            (
                path
                for path in self._directory.iterdir()
                if _ROTATED_RE.match(path.name)
            ),
            key=lambda path: path.name,
        )
        active = self.path
        return rotated + ([active] if active.exists() else [])

    def _scan_rotations(self) -> int:
        highest = 0
        for path in self._directory.iterdir():
            match = _ROTATED_RE.match(path.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest

    # -- writing --------------------------------------------------------------

    def event(self, name: str, **fields: object) -> None:
        """Append one event line (flushed immediately)."""
        record: dict = {"ts": round(self._clock(), 6), "event": name}
        request_id = current_request_id()
        if request_id is not None:
            record["request_id"] = request_id
        record.update(fields)
        line = canonical_json(record) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            handle = self._ensure_open_locked()
            handle.write(line)
            handle.flush()
            self._size += len(data)
            self.events += 1
            if self._size >= self._max_bytes:
                self._rotate_locked()

    def _ensure_open_locked(self) -> TextIO:
        if self._handle is None:
            path = self.path
            self._handle = open(path, "a", encoding="utf-8")
            self._size = path.stat().st_size
        return self._handle

    def _rotate_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        target = self._directory / f"events-{self._next_rotation:06d}.jsonl"
        self._next_rotation += 1
        try:
            os.replace(self.path, target)
        except OSError:
            return
        self._size = 0
        self.rotations += 1
        self._prune_locked()

    def _prune_locked(self) -> None:
        rotated = sorted(
            (
                path
                for path in self._directory.iterdir()
                if _ROTATED_RE.match(path.name)
            ),
            key=lambda path: path.name,
        )
        for victim in rotated[: max(0, len(rotated) - self._max_files)]:
            try:
                victim.unlink()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
