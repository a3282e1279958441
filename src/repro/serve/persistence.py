"""Session persistence: transcripts serialized to JSON across evictions.

:class:`SessionStore` is the disk side of the ROADMAP's "session
persistence" item. When the :class:`~repro.serve.sessions.SessionManager`
evicts an idle session (TTL or LRU), the conversation state —
transcript turns, current question, current SQL — is written as one
checksummed canonical-JSON file per session id via the shared atomic
writer (:mod:`repro.durability.atomic`): temp file + ``fsync`` +
``os.replace``, so a crash mid-save can never tear a transcript. A later
``POST /sessions`` with ``resume: <id>`` restores the conversation into a
fresh :class:`~repro.core.chat.ChatSession` and removes the file (resume
is move semantics: a session is resident *or* persisted, never both).

Files live flat in one directory, ``<session_id>.json``, schema-versioned
so stale layouts are ignored rather than mis-restored. A torn or
corrupt file is quarantined aside (``<name>.corrupt``) and treated as
absent — the loader never crashes and never half-restores.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Optional, Union

from repro.durability.atomic import (
    read_checksummed_json,
    write_checksummed_json,
)

#: Bump when the persisted session layout changes.
#: v2: the file is a checksummed envelope (see repro.durability.atomic).
SESSION_SCHEMA_VERSION = 2

#: Session ids must be safe as bare file names.
_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")


class SessionStore:
    """One-directory JSON persistence for evicted chat sessions."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.saved = 0
        self.restored = 0
        self.save_failures = 0

    @property
    def directory(self) -> Path:
        return self._directory

    def _path_for(self, session_id: str) -> Optional[Path]:
        if not _SAFE_ID.match(session_id):
            return None
        return self._directory / f"{session_id}.json"

    def ids(self) -> list[str]:
        """Persisted session ids, sorted."""
        return sorted(
            path.stem for path in self._directory.glob("*.json")
        )

    def save(
        self,
        session_id: str,
        tenant: str,
        db_id: str,
        state: dict,
        idempotency: Optional[list] = None,
    ) -> bool:
        """Persist one evicted session; False when the id is unsafe.

        A disk fault (full, read-only, I/O error) is absorbed rather than
        propagated: the eviction proceeds on in-memory state, the writer
        counts the failure as a degraded ``session`` write, and False is
        returned. Sessions are independent files, so later saves retry the
        disk fresh.

        ``idempotency`` carries the session's replayable-response entries
        (:meth:`~repro.serve.idempotency.IdempotencyIndex.state`). The
        field is written only when non-empty, so documents from runs that
        never used ``Idempotency-Key`` stay byte-identical to older ones.
        """
        path = self._path_for(session_id)
        if path is None:
            return False
        document = {
            "version": SESSION_SCHEMA_VERSION,
            "session_id": session_id,
            "tenant": tenant,
            "db": db_id,
            "state": state,
        }
        if idempotency:
            document["idempotency"] = idempotency
        with self._lock:
            if write_checksummed_json(path, document, "session") is None:
                self.save_failures += 1
                return False
            self.saved += 1
        return True

    def load(self, session_id: str) -> Optional[dict]:
        """The persisted document for an id (None when absent/unreadable).

        A file that fails its checksum — torn write, bit rot, manual edit,
        or a pre-checksum layout — is quarantined aside and reported
        absent: the session simply cannot be resumed, but the server keeps
        running and the evidence stays on disk.
        """
        path = self._path_for(session_id)
        if path is None:
            return None
        document = read_checksummed_json(path, kind="session")
        if (
            not isinstance(document, dict)
            or document.get("version") != SESSION_SCHEMA_VERSION
            or not isinstance(document.get("state"), dict)
        ):
            return None
        return document

    def pop(self, session_id: str) -> Optional[dict]:
        """Load and remove a persisted session (move semantics for resume)."""
        with self._lock:
            document = self.load(session_id)
            if document is not None:
                path = self._path_for(session_id)
                try:
                    assert path is not None
                    path.unlink()
                except OSError:
                    pass
                else:
                    self.restored += 1
            return document
