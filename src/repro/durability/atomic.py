"""Atomic, checksummed JSON files: the one way anything here touches disk.

Three guarantees, shared by every persister in the stack (completion
cache, session store, suite files):

1. **Atomic replace** — content is written to a temp file in the *same*
   directory, flushed and ``fsync``'d, then ``os.replace``'d over the
   target, and the directory entry is fsync'd too. A crash at any point
   leaves either the old file or the new file, never a torn mix.
2. **Checksum** — documents carry a SHA-256 over the canonical JSON of
   their payload. A reader that finds a mismatch knows the file is
   corrupt (bit rot, partial copy, manual edit) rather than trusting it.
3. **Quarantine** — corrupt files are renamed to ``<name>.corrupt`` (or
   ``.corrupt-N``) and the reader reports "absent". The data they held is
   re-derived by the caller; a bad file can never crash a loader or be
   half-loaded, and the evidence is kept on disk for inspection.

The checksummed envelope is also the run journal's line format:
:func:`checksummed_json` wraps a payload as one canonical-JSON line and
:func:`verify_checksummed` unwraps it, for a whole file here and for each
journal record in :mod:`repro.durability.journal`.

:func:`canonical_json` / :func:`canonical_key` are the same construction
:func:`repro.llm.dispatch.canonical_prompt_key` uses (sorted keys, compact
separators, SHA-256), so journal keys and cache keys hash identically for
identical material.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro import obs
from repro.chaos.diskfaults import disk_fault

#: Checksum algorithm recorded in every checksummed document.
CHECKSUM_ALGORITHM = "sha256"


def canonical_json(payload: object) -> str:
    """The canonical JSON text for a payload (sorted keys, stable bytes)."""
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        default=str,
    )


def canonical_key(payload: object) -> str:
    """A deterministic hex digest over a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. directories are not openable on this platform
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target's directory so the replace is a
    same-filesystem rename. The content is fsync'd before the rename, and
    the directory entry after it — a crash leaves either the complete old
    file or the complete new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        disk_fault("disk.atomic_write", tmp_path=tmp_path, target=path)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        disk_fault("disk.replace", tmp_path=tmp_path, target=path)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def checksummed_json(payload: object) -> str:
    """``payload`` in its ``{algorithm, checksum, payload}`` envelope.

    The text is canonical JSON, so equal payloads give equal bytes, and
    it is one line: JSON escapes every newline inside a string.
    """
    return canonical_json(
        {
            "algorithm": CHECKSUM_ALGORITHM,
            "checksum": canonical_key(payload),
            "payload": payload,
        }
    )


def verify_checksummed(data: bytes) -> Optional[object]:
    """The payload of a checksummed envelope; None unless ``data`` is one.

    ``data`` must be UTF-8 JSON holding an envelope that names
    :data:`CHECKSUM_ALGORITHM` and whose checksum matches its payload.
    A payload of None reads as absent too.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except ValueError:  # not UTF-8 (UnicodeDecodeError), or not JSON
        return None
    if (
        isinstance(document, dict)
        and document.get("algorithm") == CHECKSUM_ALGORITHM
        and "payload" in document
        and document.get("checksum") == canonical_key(document["payload"])
    ):
        return document["payload"]
    return None


def write_checksummed_json(path: Union[str, Path], payload: object) -> Path:
    """Atomically persist ``payload`` wrapped in a checksummed envelope.

    The document is itself canonical JSON, so two processes persisting
    equal payloads write byte-identical files.
    """
    return atomic_write_text(path, checksummed_json(payload) + "\n")


def quarantine_file(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt file aside as ``<name>.corrupt[-N]``; None on failure.

    Quarantined files no longer match ``*.json`` globs, so loaders stop
    seeing them, but the bytes stay on disk for post-mortems.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    suffix = 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}.corrupt-{suffix}")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def read_checksummed_json(
    path: Union[str, Path], quarantine: bool = True, kind: str = "file"
) -> Optional[object]:
    """Load a checksummed document's payload; None when absent or corrupt.

    Corruption — unreadable bytes, non-JSON, a missing envelope, or a
    checksum mismatch — quarantines the file (when ``quarantine``) and
    counts ``durability.quarantined`` labelled by ``kind``. The caller
    re-derives the data; a torn file never crashes the loader.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    payload = verify_checksummed(data)
    if payload is not None:
        return payload
    obs.count("durability.quarantined", kind=kind)
    if quarantine:
        quarantine_file(path)
    return None
