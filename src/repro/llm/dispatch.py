"""Unified batched/cached LLM dispatch.

Every LLM interaction in the stack used to funnel through single-prompt
:meth:`ChatModel.complete` calls. This module restructures that call-chain
shape once, for every layer above it:

* :func:`complete_batch` / :func:`settle_batch` — the dispatch adapters.
  They route a list of prompts through a model's *native* batch path when
  it has one and fall back to sequential ``complete`` otherwise, so any
  :class:`~repro.llm.interface.ChatModel` keeps working unchanged.
  ``settle_batch`` never raises for a single item: each slot settles to
  either a :class:`~repro.llm.interface.Completion` or the
  :class:`~repro.errors.LLMError` that item died with (the semantics the
  evaluation loop's skip-and-record path needs).
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
  the cache before dispatching, batch-aware on both sides: cache misses
  inside a batch are re-batched to the inner model.
* :class:`BatchingChatModel` — a bounded-wait request coalescer: concurrent
  ``complete`` calls from many threads are grouped into one
  ``complete_batch`` dispatch (leader/follower, ``max_wait_ms`` bounded).
  The serve layer hangs one of these per tenant.

Metric names: ``llm.batch_size`` (histogram, one observation per batch
dispatch), ``cache.hit`` / ``cache.miss`` (counters, labelled by prompt
kind; each lookup is also a structured-log event of the same name, which
carries the request id in serve traffic).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro import obs
from repro.obs.context import current_request_id
from repro.chaos.diskfaults import disk_fault
from repro.datasets.base import Demonstration
from repro.durability.atomic import read_checksummed_json, write_checksummed_json
from repro.errors import LLMError, OverloadError
from repro.llm.interface import ChatModel, Completion, Prompt
from repro.sql.schema import DatabaseSchema

#: Bump when the cache file layout changes (old files are ignored).
#: v2: the file is a checksummed envelope (see repro.durability.atomic).
CACHE_SCHEMA_VERSION = 2

#: File name used inside a ``--cache-dir`` directory.
CACHE_FILENAME = "completions.json"

#: One settled batch slot: the completion, or the error the item died with.
BatchOutcome = Union[Completion, LLMError]


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
    material = json.dumps(
        {
            "kind": prompt.kind,
            "text": prompt.text,
            "payload": _canonical_value(prompt.payload),
        },
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        default=str,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# -- batch dispatch adapters -------------------------------------------------------


def _dispatch_batch(model: ChatModel, prompts: Sequence[Prompt]) -> list[Completion]:
    """Native batch when available, sequential otherwise. No metrics."""
    native = getattr(model, "complete_batch", None)
    if callable(native):
        return list(native(prompts))
    return [model.complete(prompt) for prompt in prompts]


def _settle_batch(model: ChatModel, prompts: Sequence[Prompt]) -> list[BatchOutcome]:
    """Per-item settled dispatch (native when available). No metrics."""
    native = getattr(model, "complete_batch_settled", None)
    if callable(native):
        return list(native(prompts))
    outcomes: list[BatchOutcome] = []
    for prompt in prompts:
        try:
            outcomes.append(model.complete(prompt))
        except LLMError as error:
            outcomes.append(error)
    return outcomes


def complete_batch(model: ChatModel, prompts: Sequence[Prompt]) -> list[Completion]:
    """Batch-complete ``prompts`` against any :class:`ChatModel`.

    Uses the model's native ``complete_batch`` when it has one; otherwise
    falls back to sequential ``complete`` calls, so every model keeps
    working. Raises the first item's :class:`~repro.errors.LLMError` when
    an item fails — use :func:`settle_batch` for per-item outcomes.
    """
    prompts = list(prompts)
    if not prompts:
        return []
    obs.observe("llm.batch_size", len(prompts))
    return _dispatch_batch(model, prompts)


def settle_batch(model: ChatModel, prompts: Sequence[Prompt]) -> list[BatchOutcome]:
    """Batch-complete with per-item outcomes (never raises per item).

    Each returned slot is either the item's :class:`Completion` or the
    :class:`~repro.errors.LLMError` it failed with, in prompt order.
    """
    prompts = list(prompts)
    if not prompts:
        return []
    obs.observe("llm.batch_size", len(prompts))
    return _settle_batch(model, prompts)


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
    def load(
        cls,
        directory: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> "CompletionCache":
        """A cache warmed from ``directory`` (empty when nothing persisted).

        A corrupt file (torn write, checksum mismatch, manual edit) is
        quarantined and the cache starts cold; a stale schema version is
        simply ignored. Loading never raises.
        """
        cache = cls(max_entries=max_entries)
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
        with cache._lock:
            cache._evict_over_cap_locked()
        return cache

    def save(self, directory: Union[str, Path]) -> int:
        """Persist the store to ``directory`` (atomic); returns entry count.

        The document is checksummed canonical JSON written via temp-file +
        ``os.replace``: two processes that cached the same completions
        write identical bytes, and a crash mid-save leaves the previous
        file intact rather than a torn one.

        A disk fault (ENOSPC, EIO, read-only filesystem) degrades
        gracefully: the save is skipped, ``save_failed`` flips, and a
        ``durability.degraded`` counter records the loss — a full disk
        costs cache warmth, never the run. Returns 0 on a failed save.
        """
        directory = Path(directory)
        with self._lock:
            entries = {
                key: {"text": text, "notes": list(notes)}
                for key, (text, notes) in self._entries.items()
            }
        document = {"version": CACHE_SCHEMA_VERSION, "entries": entries}
        try:
            disk_fault("disk.cache_save")
            directory.mkdir(parents=True, exist_ok=True)
            write_checksummed_json(directory / CACHE_FILENAME, document)
        except OSError as error:
            self.save_failed = True
            obs.count("durability.degraded", kind="completion_cache")
            obs.event(
                "cache.save_failed",
                error=f"{type(error).__name__}: {error}",
            )
            return 0
        return len(entries)


class CachingChatModel:
    """A :class:`ChatModel` wrapper that memoizes completions.

    Hits are answered from the :class:`CompletionCache` without touching
    the inner model; misses inside a batch are re-batched to the inner
    model's native dispatch. Settled errors are never cached — a failed
    item retries against the backend on the next call.
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
        cached = self._cache.get(key)
        if cached is not None:
            self._lookup(True, prompt.kind)
            return cached
        self._lookup(False, prompt.kind)
        completion = self._inner.complete(prompt)
        self._cache.put(key, completion)
        return completion

    def complete_batch(self, prompts: Sequence[Prompt]) -> list[Completion]:
        prompts = list(prompts)
        results: list[Optional[Completion]] = [None] * len(prompts)
        keys = [canonical_prompt_key(prompt) for prompt in prompts]
        missing: list[int] = []
        for index, (prompt, key) in enumerate(zip(prompts, keys)):
            cached = self._cache.get(key)
            if cached is not None:
                self._lookup(True, prompt.kind)
                results[index] = cached
            else:
                self._lookup(False, prompt.kind)
                missing.append(index)
        if missing:
            fetched = _dispatch_batch(
                self._inner, [prompts[index] for index in missing]
            )
            for index, completion in zip(missing, fetched):
                self._cache.put(keys[index], completion)
                results[index] = completion
        return results  # type: ignore[return-value]

    def complete_batch_settled(
        self, prompts: Sequence[Prompt]
    ) -> list[BatchOutcome]:
        prompts = list(prompts)
        results: list[Optional[BatchOutcome]] = [None] * len(prompts)
        keys = [canonical_prompt_key(prompt) for prompt in prompts]
        missing: list[int] = []
        for index, (prompt, key) in enumerate(zip(prompts, keys)):
            cached = self._cache.get(key)
            if cached is not None:
                self._lookup(True, prompt.kind)
                results[index] = cached
            else:
                self._lookup(False, prompt.kind)
                missing.append(index)
        if missing:
            settled = _settle_batch(
                self._inner, [prompts[index] for index in missing]
            )
            for index, outcome in zip(missing, settled):
                if isinstance(outcome, Completion):
                    self._cache.put(keys[index], outcome)
                results[index] = outcome
        return results  # type: ignore[return-value]


# -- bounded-wait request coalescing -----------------------------------------------


class _PendingItem:
    """One enqueued prompt awaiting its slot of a coalesced dispatch."""

    __slots__ = ("prompt", "outcome", "done", "request_id")

    def __init__(self, prompt: Prompt) -> None:
        self.prompt = prompt
        self.outcome: Optional[BatchOutcome] = None
        self.done = False
        # Captured at enqueue time: the leader dispatches on behalf of
        # followers from *its* thread, so the follower's correlation id
        # must ride the item, not the dispatching context.
        self.request_id = current_request_id()


class BatchingChatModel:
    """Coalesces concurrent ``complete`` calls into batched dispatches.

    Leader/follower over one condition variable: the first caller with no
    active leader becomes the leader, waits up to ``max_wait_ms`` for the
    queue to fill (or until ``max_batch`` items arrived), dispatches the
    collected prompts as one settled batch against the inner model, and
    distributes the per-item outcomes. A solitary caller therefore pays at
    most ``max_wait_ms`` extra latency; concurrent callers on the same
    model share one dispatch.

    With ``max_batch=1`` the wrapper degenerates to pass-through
    ``complete`` calls (no queueing, no added latency).

    **Backpressure.** ``max_queue`` bounds the number of prompts waiting
    for a coalesced dispatch; an enqueue beyond it is shed with
    :class:`~repro.errors.OverloadError` instead of growing the queue
    without limit. **Drain.** :meth:`begin_drain` rejects new prompts
    (``OverloadError`` with reason ``draining``) while already-enqueued
    ones run to completion; :meth:`await_idle` blocks until the queue is
    empty and no dispatch is in flight — the SIGTERM half of graceful
    shutdown.
    """

    def __init__(
        self,
        inner: ChatModel,
        max_batch: int = 8,
        max_wait_ms: float = 5.0,
        max_queue: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0: {max_wait_ms}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1: {max_queue}")
        self._inner = inner
        self._max_batch = max_batch
        self._max_wait = max_wait_ms / 1000.0
        self._max_queue = max_queue
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: list[_PendingItem] = []
        self._leader_active = False
        self._draining = False
        self.dispatches = 0
        self.coalesced = 0
        self.shed = 0

    @property
    def inner(self) -> ChatModel:
        return self._inner

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queued(self) -> int:
        """Prompts currently waiting in the coalescer queue."""
        with self._cond:
            return len(self._queue)

    def begin_drain(self) -> None:
        """Reject new prompts; enqueued ones still dispatch and settle."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def await_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no leader is dispatching."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and not self._leader_active,
                timeout=timeout,
            )

    def _shed(self, reason: str) -> OverloadError:
        self.shed += 1
        obs.count("llm.batch.shed", reason=reason)
        if reason == "draining":
            return OverloadError(
                "batcher is draining; not accepting new prompts",
                reason="draining",
            )
        return OverloadError(
            f"batch queue is full ({self._max_queue} waiting); shedding",
            reason="queue_full",
        )

    def complete(self, prompt: Prompt) -> Completion:
        if self._max_batch == 1:
            if self._draining:
                with self._cond:
                    raise self._shed("draining")
            return self._inner.complete(prompt)
        item = _PendingItem(prompt)
        with self._cond:
            if self._draining:
                raise self._shed("draining")
            if (
                self._max_queue is not None
                and len(self._queue) >= self._max_queue
            ):
                raise self._shed("queue_full")
            self._queue.append(item)
            self._cond.notify_all()
        while True:
            batch: list[_PendingItem] = []
            with self._cond:
                if item.done:
                    break
                if self._leader_active:
                    # Follower: wait for the current leader's round, then
                    # re-check (our item may ride the next round).
                    self._cond.wait(timeout=max(self._max_wait, 0.01))
                    if item.done:
                        break
                    continue
                self._leader_active = True
                deadline = self._clock() + self._max_wait
                while len(self._queue) < self._max_batch:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch = self._queue[: self._max_batch]
                del self._queue[: self._max_batch]
            # Dispatch outside the lock so followers can keep enqueueing.
            outcomes = settle_batch(
                self._inner, [pending.prompt for pending in batch]
            )
            obs.event(
                "llm.batch",
                size=len(batch),
                coalesced=True,
                request_ids=sorted(
                    {p.request_id for p in batch if p.request_id is not None}
                ),
            )
            with self._cond:
                for pending, outcome in zip(batch, outcomes):
                    pending.outcome = outcome
                    pending.done = True
                self.dispatches += 1
                self.coalesced += len(batch)
                self._leader_active = False
                self._cond.notify_all()
            if item.done:
                break
        if isinstance(item.outcome, LLMError):
            raise item.outcome
        assert item.outcome is not None
        return item.outcome

    def complete_batch(self, prompts: Sequence[Prompt]) -> list[Completion]:
        """An explicit batch bypasses coalescing: it already is one."""
        with self._cond:
            if self._draining:
                raise self._shed("draining")
            self.dispatches += 1
            self.coalesced += len(prompts)
        _explicit_batch_event(len(prompts))
        return complete_batch(self._inner, prompts)

    def complete_batch_settled(
        self, prompts: Sequence[Prompt]
    ) -> list[BatchOutcome]:
        with self._cond:
            if self._draining:
                raise self._shed("draining")
            self.dispatches += 1
            self.coalesced += len(prompts)
        _explicit_batch_event(len(prompts))
        return settle_batch(self._inner, prompts)


def _explicit_batch_event(size: int) -> None:
    request_id = current_request_id()
    obs.event(
        "llm.batch",
        size=size,
        coalesced=False,
        request_ids=[request_id] if request_id is not None else [],
    )
