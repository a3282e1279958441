"""Cached LLM dispatch: canonical prompt keys and the completion cache.

Every prompt reaches a model through one call, :meth:`ChatModel.complete`.
This module adds the layer that lets a repeated prompt skip the model:

* :func:`canonical_prompt_key` — a deterministic content hash over a
  prompt's kind, rendered text, and the payload fields that influence the
  completion but are *not* part of the rendered text (``context_key``,
  ``feedback_type``, demonstration glossaries). Two prompts with equal
  keys are guaranteed to produce equal completions from the deterministic
  backend.
* :class:`CompletionCache` — a thread-safe completion store keyed on
  canonical prompt hashes, with optional JSON persistence (one
  ``completions.json`` per cache directory) so predictions and generated
  correction suites survive across processes.
* :class:`CachingChatModel` — a :class:`ChatModel` wrapper that consults
  the cache before calling the inner model, and makes one call for
  concurrent misses on one prompt.

Metric names: ``cache.hit`` / ``cache.miss`` (counters, labelled by prompt
kind; each lookup is also a structured-log event of the same name, which
carries the request id in serve traffic).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Optional, Union

from repro import obs
from repro.datasets.base import Demonstration
from repro.durability.atomic import (
    canonical_key,
    read_checksummed_json,
    write_checksummed_json,
)
from repro.llm.interface import ChatModel, Completion, Prompt
from repro.sql.schema import DatabaseSchema

#: Bump when the cache file layout changes (old files are ignored).
#: v2: the file is a checksummed envelope (see repro.durability.atomic).
CACHE_SCHEMA_VERSION = 2

#: File name used inside a ``--cache-dir`` directory.
CACHE_FILENAME = "completions.json"


# -- canonical prompt hashing ------------------------------------------------------


def _canonical_value(value: object) -> object:
    """A JSON-stable projection of a payload value.

    Scalars pass through; demonstrations contribute their glossary (which
    influences the simulated model's in-context learning but is *not* part
    of the rendered prompt text); schemas contribute only their name (the
    full DDL is already in the text). Everything else degrades to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _canonical_value(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, Demonstration):
        return {
            "question": value.question,
            "sql": value.sql,
            "db_id": value.db_id,
            "glossary": dict(sorted(value.glossary.items())),
        }
    if isinstance(value, DatabaseSchema):
        return {"schema": value.name}
    return str(value)


def canonical_prompt_key(prompt: Prompt) -> str:
    """A deterministic hex digest identifying a prompt's full content."""
    return canonical_key(
        {
            "kind": prompt.kind,
            "text": prompt.text,
            "payload": _canonical_value(prompt.payload),
        }
    )


# -- completion cache --------------------------------------------------------------


class CompletionCache:
    """A thread-safe, deterministic completion store with LRU eviction.

    Entries are keyed on :func:`canonical_prompt_key` digests and hold the
    completion's text and notes. ``max_entries`` caps the resident set:
    at capacity the least-recently-*used* entry (read or written) is
    evicted. ``load``/``save`` persist the whole store as one checksummed
    canonical-JSON document inside a directory, so a warm cache carries
    nl2sql predictions and generated correction completions across
    processes — and a torn or corrupt file degrades to a cold cache
    (quarantined aside) instead of crashing the loader.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self._lock = threading.Lock()
        # dict preserves insertion order; hits/puts re-insert at the end,
        # so iteration order is LRU-first.
        self._entries: dict[str, tuple[str, tuple[str, ...]]] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.loaded = 0
        self.evictions = 0
        self.save_failed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> Optional[int]:
        return self._max_entries

    def get(self, key: str) -> Optional[Completion]:
        """The cached completion (a fresh copy), or None on miss."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                self.misses += 1
                return None
            self._entries[key] = entry  # re-insert: most recently used
            self.hits += 1
        text, notes = entry
        return Completion(text=text, notes=list(notes))

    def put(self, key: str, completion: Completion) -> None:
        """Store one completion under its canonical key."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (completion.text, tuple(completion.notes))
            self._evict_over_cap_locked()

    def _evict_over_cap_locked(self) -> None:
        if self._max_entries is None:
            return
        while len(self._entries) > self._max_entries:
            victim = next(iter(self._entries))
            del self._entries[victim]
            self.evictions += 1
            obs.count("cache.evictions")

    def clear(self) -> int:
        """Drop every resident entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "loaded": self.loaded,
                "evictions": self.evictions,
            }

    # -- persistence ----------------------------------------------------------

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "CompletionCache":
        """An unbounded cache warmed from ``directory`` (empty when nothing
        persisted).

        A corrupt file (torn write, checksum mismatch, manual edit) is
        quarantined and the cache starts cold; a stale schema version is
        simply ignored. Loading never raises.
        """
        cache = cls()
        path = Path(directory) / CACHE_FILENAME
        document = read_checksummed_json(path, kind="completion_cache")
        if (
            not isinstance(document, dict)
            or document.get("version") != CACHE_SCHEMA_VERSION
        ):
            return cache
        entries = document.get("entries")
        if not isinstance(entries, dict):
            return cache
        for key, entry in entries.items():
            if (
                isinstance(key, str)
                and isinstance(entry, dict)
                and isinstance(entry.get("text"), str)
            ):
                notes = entry.get("notes", [])
                if isinstance(notes, list) and all(
                    isinstance(note, str) for note in notes
                ):
                    cache._entries[key] = (entry["text"], tuple(notes))
        cache.loaded = len(cache._entries)
        return cache

    def save(self, directory: Union[str, Path]) -> int:
        """Persist the store to ``directory`` (atomic); returns entry count.

        The document is checksummed canonical JSON written via temp-file +
        ``os.replace``: two processes that cached the same completions
        write identical bytes, and a crash mid-save leaves the previous
        file intact rather than a torn one.

        A disk fault (ENOSPC, EIO, read-only filesystem) costs cache
        warmth, never the run: the writer counts the loss as a degraded
        ``completion_cache`` write, ``save_failed`` flips, and 0 comes
        back.
        """
        with self._lock:
            entries = {
                key: {"text": text, "notes": list(notes)}
                for key, (text, notes) in self._entries.items()
            }
        document = {"version": CACHE_SCHEMA_VERSION, "entries": entries}
        path = Path(directory) / CACHE_FILENAME
        if write_checksummed_json(path, document, "completion_cache") is None:
            self.save_failed = True
            return 0
        return len(entries)


class _Flight:
    """One backend call in progress, which callers of its key wait on."""

    def __init__(self) -> None:
        self.done = threading.Event()
        #: The call's completion; stays None when the call raised.
        self.completion: Optional[Completion] = None


class CachingChatModel:
    """A :class:`ChatModel` wrapper that memoizes completions.

    Hits are answered from the :class:`CompletionCache` without touching
    the inner model. Concurrent misses on one prompt make one backend
    call (single flight): the first caller makes it, and the others wait
    and get copies of its completion. Errors are never cached — when the
    call raises, each waiter calls the backend itself, and a failed
    prompt retries against the backend on the next call.
    """

    def __init__(
        self,
        inner: ChatModel,
        cache: Optional[CompletionCache] = None,
        on_lookup: Optional[Callable[[bool], None]] = None,
    ) -> None:
        self._inner = inner
        self._cache = cache if cache is not None else CompletionCache()
        # Optional live-telemetry hook: called with hit/miss per lookup
        # (the serve layer feeds its TelemetryHub windowed hit rate).
        self._on_lookup = on_lookup
        # Guards the lookup and the flight table together, so a miss
        # either joins the call in flight or finds its completion cached.
        self._flights_lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}

    @property
    def inner(self) -> ChatModel:
        return self._inner

    @property
    def cache(self) -> CompletionCache:
        return self._cache

    def _lookup(self, hit: bool, kind: str) -> None:
        # The counter is labelled by kind only: a per-request label would
        # add a series per miss for the life of a serve process. The
        # request id rides the structured-log event instead.
        name = "cache.hit" if hit else "cache.miss"
        obs.count(name, kind=kind)
        obs.event(name, kind=kind)
        if self._on_lookup is not None:
            self._on_lookup(hit)

    def complete(self, prompt: Prompt) -> Completion:
        key = canonical_prompt_key(prompt)
        with self._flights_lock:
            cached = self._cache.get(key)
            flight = self._flights.get(key) if cached is None else None
            leads = cached is None and flight is None
            if leads:
                flight = self._flights[key] = _Flight()
        self._lookup(cached is not None, prompt.kind)
        if cached is not None:
            return cached
        if leads:
            try:
                flight.completion = self._inner.complete(prompt)
            finally:
                with self._flights_lock:
                    if flight.completion is not None:
                        self._cache.put(key, flight.completion)
                    del self._flights[key]
                flight.done.set()
            return flight.completion
        flight.done.wait()
        if flight.completion is not None:
            return Completion(
                text=flight.completion.text,
                notes=list(flight.completion.notes),
            )
        # The leader's call raised: this caller asks the backend itself.
        completion = self._inner.complete(prompt)
        self._cache.put(key, completion)
        return completion
