"""Atomic, checksummed JSON files: the one way anything here touches disk.

Four guarantees, shared by every persister in the stack (completion
cache, session store, semantic cache, suite files):

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
4. **Degrade** — a write the disk refuses (full, read-only, I/O error)
   costs durability, never the run: :func:`write_checksummed_json`
   catches the ``OSError``, counts ``durability.degraded{kind}``, logs one
   event and returns None, and the caller keeps serving from memory. It
   is the one place a whole-file write's ``OSError`` is caught.

The checksummed envelope is also the line format of the run journal and
the semantic cache's question log: :func:`checksummed_json` wraps a
payload as one canonical-JSON line and :func:`verify_checksummed`
unwraps it, and :func:`read_checksummed_lines` reads a file of such
lines for both.

:func:`canonical_key` (sorted keys, compact separators, SHA-256) keys the
journal, and :func:`repro.llm.dispatch.canonical_prompt_key` hashes
through it too, so journal keys and cache keys hash identically for
identical material.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Optional, Union

from repro import obs
from repro.durability.faultpoints import fault_point

#: Checksum algorithm recorded in every checksummed document.
CHECKSUM_ALGORITHM = "sha256"

_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _escape_surrogate(match: "re.Match[str]") -> str:
    return f"\\u{ord(match.group()):04x}"


def _join_pair(match: "re.Match[str]") -> str:
    pair = match.group().encode("utf-16-le", "surrogatepass")
    return pair.decode("utf-16-le")


def canonical_json(payload: object) -> str:
    """The canonical JSON text for a payload (sorted keys, stable bytes).

    Text stays raw UTF-8, except surrogates, which UTF-8 cannot encode.
    A high surrogate followed by a low one (two code points that only
    concatenation inside the program builds) is written as the one
    character the pair encodes, as JSON reading joins them. A lone
    surrogate (``"\\ud800"`` in a request body parses to one) is written
    as its ``\\udXXX`` escape, which reads back as the same string. So
    the canonical JSON of what the text reads back as is the same text.
    """
    text = json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        default=str,
    )
    if text.isascii():  # the usual case, and O(1): nothing to escape
        return text
    if _SURROGATE_PAIR.search(text):
        # Read it back as JSON reading would: a joined pair can move its
        # key in the sort order, so sort the read-back again.
        joined = _SURROGATE_PAIR.sub(_join_pair, text)
        return canonical_json(json.loads(joined))
    return _SURROGATE.sub(_escape_surrogate, text)


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
        fault_point("disk.atomic_write", tmp_path=tmp_path, target=path)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("disk.replace", tmp_path=tmp_path, target=path)
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


def read_checksummed_lines(
    path: Union[str, Path]
) -> list[Optional[object]]:
    """The payload of each checksummed line of a file; None where one fails.

    Lines split on ``\\n`` alone: JSON escapes every newline inside a
    string, while U+2028 and its kin stay raw, so ``str.splitlines`` would
    cut a record in two. Bytes are verified line by line, so one byte
    that is not UTF-8 costs its own line. Empty lines hold no record; an
    unreadable file holds none.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return []
    return [verify_checksummed(line) for line in data.split(b"\n") if line]


def write_checksummed_json(
    path: Union[str, Path], payload: object, kind: str
) -> Optional[Path]:
    """Atomically persist ``payload`` in a checksummed envelope.

    The document is itself canonical JSON, so two processes persisting
    equal payloads write byte-identical files.

    A write the disk refuses costs durability, never the run: the old
    file stays as it was, the loss counts as ``durability.degraded``
    labelled by ``kind`` and is logged as one event, and None comes back.
    """
    try:
        return atomic_write_text(path, checksummed_json(payload) + "\n")
    except OSError as error:
        obs.count("durability.degraded", kind=kind)
        obs.event(
            "durability.degraded",
            kind=kind,
            path=str(path),
            error=f"{type(error).__name__}: {error}",
        )
        return None


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
    path: Union[str, Path], kind: str = "file"
) -> Optional[object]:
    """Load a checksummed document's payload; None when absent or corrupt.

    Corruption — unreadable bytes, non-JSON, a missing envelope, or a
    checksum mismatch — quarantines the file and counts
    ``durability.quarantined`` labelled by ``kind``. The caller re-derives
    the data; a torn file never crashes the loader.
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
    quarantine_file(path)
    return None
