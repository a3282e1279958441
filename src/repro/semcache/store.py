"""The bounded, atomically persisted semantic answer store.

Every lookup classifies into exactly one of four outcomes, and the
classification *is* the guardrail logic:

* ``hit`` — same schema fingerprint, same intent signature, an answer is
  stored: serve it without touching dispatch, router, or backends.
* ``miss`` — signable question, current fingerprint, no entry: the caller
  runs the real model and offers the result back via :meth:`store`.
* ``bypass`` — the cache refuses to participate: feedback/correction
  rounds (reason ``feedback``), a changed tenant schema fingerprint
  (``schema_changed``), or a question nothing anchored to
  (``unsignable``). Bypasses never read *and never write*: a correction
  round must not poison the store with turn-local SQL.
* ``invalidate`` — counted when a schema mutation drops stored entries;
  the lookup that observed the change still reports ``bypass``.

Keys are ``{schema_fingerprint}:{signature_key}`` — tenant-*agnostic* by
design: two tenants hosting byte-identical schemas share answers (the
fingerprint proves the schemas agree). The fingerprint registry itself is
per ``(tenant, db)``: multiple live fingerprints may coexist under one
database name, so two tenants hosting *different* schemas under the same
name each keep hitting their own entries instead of invalidating each
other on every alternating lookup. A fingerprint's entries are dropped
only once no tenant references it anymore, and the tenant that observed
the change takes exactly one bypass round. Persistence reuses the
durability tier's checksummed atomic writer, so a torn or hand-edited
store file quarantines and the cache restarts cold instead of serving
garbage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro import obs
from repro.durability.atomic import (
    checksummed_json,
    read_checksummed_json,
    write_checksummed_json,
)
from repro.durability.faultpoints import fault_point
from repro.semcache.fingerprint import display_fingerprint, schema_fingerprint
from repro.semcache.signature import build_signature
from repro.sql.schema import DatabaseSchema

#: On-disk store document (checksummed envelope around this payload).
STORE_FILENAME = "semcache.json"
#: Append-only question log consumed by ``fisql-repro semcache replay``.
LOG_FILENAME = "questions.jsonl"
#: Bumped when the store payload layout changes; old versions load cold.
STORE_SCHEMA_VERSION = 2
#: Default entry bound when ``max_entries`` is not given.
DEFAULT_MAX_ENTRIES = 4096

_COUNTER_OUTCOMES = ("hit", "miss", "bypass", "invalidate")


@dataclass(frozen=True)
class SemcacheLookup:
    """The classification of one question against the store."""

    outcome: str  # "hit" | "miss" | "bypass"
    tenant: str
    db: str
    question: str
    fingerprint: str
    key: Optional[str] = None
    sql: Optional[str] = None
    notes: tuple[str, ...] = ()
    reason: Optional[str] = None


def _empty_stats() -> dict[str, int]:
    return {
        "hits": 0,
        "misses": 0,
        "bypasses": 0,
        "invalidations": 0,
        "evictions": 0,
    }


@dataclass
class _TenantView:
    fingerprints: dict[str, str] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=_empty_stats)


class SemanticAnswerCache:
    """Cross-request answer cache keyed by schema fingerprint + intent."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._max_entries = (
            max_entries if max_entries is not None else DEFAULT_MAX_ENTRIES
        )
        if self._max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._on_outcome: Optional[Callable[[str], None]] = None
        self._lock = threading.Lock()
        # The question log gets its own lock: in serve mode the append
        # is disk I/O per round, and it must not serialize lookup/store
        # on other threads behind the classification lock.
        self._log_lock = threading.Lock()
        self._entries: dict[str, dict[str, object]] = {}
        self._tenants: dict[str, _TenantView] = {}
        self._stats = _empty_stats()
        self.save_failed = False
        # Once a log append fails the log is abandoned for the process:
        # a replay log with a silent hole would audit the wrong history.
        self._log_degraded = False
        self._load()

    def set_outcome_hook(
        self, hook: Optional[Callable[[str], None]]
    ) -> None:
        """Feed hit/miss/bypass outcomes to a listener (telemetry hub)."""
        self._on_outcome = hook

    # -- persistence --------------------------------------------------------

    @property
    def directory(self) -> Optional[Path]:
        return self._directory

    def _store_path(self) -> Optional[Path]:
        if self._directory is None:
            return None
        return self._directory / STORE_FILENAME

    def _log_path(self) -> Optional[Path]:
        if self._directory is None:
            return None
        return self._directory / LOG_FILENAME

    def _load(self) -> None:
        path = self._store_path()
        if path is None:
            return
        payload = read_checksummed_json(path, kind="semcache")
        if not isinstance(payload, dict):
            return
        if payload.get("version") != STORE_SCHEMA_VERSION:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            for key, entry in entries.items():
                if isinstance(key, str) and isinstance(entry, dict):
                    self._entries[key] = entry
        fingerprints = payload.get("fingerprints")
        if isinstance(fingerprints, dict):
            for tenant, dbs in fingerprints.items():
                if not (isinstance(tenant, str) and isinstance(dbs, dict)):
                    continue
                view = self._tenant(tenant)
                for db, fingerprint in dbs.items():
                    if isinstance(db, str) and isinstance(fingerprint, str):
                        view.fingerprints[db] = fingerprint
        stats = payload.get("stats")
        if isinstance(stats, dict):
            for name in self._stats:
                value = stats.get(name)
                if isinstance(value, int):
                    self._stats[name] = value

    def save(self) -> Optional[Path]:
        """Atomically persist entries, fingerprints, and counters.

        A failing disk degrades gracefully: the writer counts the loss
        as a degraded ``semcache`` write, ``save_failed`` flips, and the
        in-memory store keeps serving. Returns None then.
        """
        path = self._store_path()
        if path is None:
            return None
        with self._lock:
            payload = {
                "version": STORE_SCHEMA_VERSION,
                "entries": dict(self._entries),
                "fingerprints": {
                    tenant: dict(view.fingerprints)
                    for tenant, view in self._tenants.items()
                    if view.fingerprints
                },
                "stats": dict(self._stats),
            }
        written = write_checksummed_json(path, payload, "semcache")
        if written is None:
            self.save_failed = True
        return written

    # -- classification -----------------------------------------------------

    def _tenant(self, tenant: str) -> _TenantView:
        view = self._tenants.get(tenant)
        if view is None:
            view = _TenantView()
            self._tenants[tenant] = view
        return view

    def _count(self, outcome: str, tenant: str) -> None:
        obs.count(f"semcache.{outcome}", tenant=tenant)
        if self._on_outcome is not None and outcome in (
            "hit",
            "miss",
            "bypass",
        ):
            self._on_outcome(outcome)

    def _record(self, outcome: str, tenant: str) -> None:
        plural = {
            "hit": "hits",
            "miss": "misses",
            "bypass": "bypasses",
            "invalidate": "invalidations",
        }[outcome]
        self._stats[plural] += 1
        self._tenant(tenant).stats[plural] += 1
        self._count(outcome, tenant)

    def _live_fingerprints(self) -> set[str]:
        return {
            fingerprint
            for view in self._tenants.values()
            for fingerprint in view.fingerprints.values()
        }

    def _classify(
        self, tenant: str, schema: DatabaseSchema, question: str, mutate: bool
    ) -> SemcacheLookup:
        db = schema.name
        fingerprint = schema_fingerprint(schema)

        tenant_view = self._tenant(tenant)
        known = tenant_view.fingerprints.get(db)
        if known is not None and known != fingerprint:
            # This tenant's view of the database mutated: its old answers
            # are stale. Retire the old fingerprint's entries only once
            # no tenant still lives on it — another tenant may
            # legitimately host a different schema under the same name.
            if mutate:
                tenant_view.fingerprints[db] = fingerprint
                if known not in self._live_fingerprints():
                    dropped = [
                        key
                        for key in self._entries
                        if key.startswith(known + ":")
                    ]
                    for key in dropped:
                        del self._entries[key]
                    if dropped:
                        self._record("invalidate", tenant)
                self._record("bypass", tenant)
            return SemcacheLookup(
                outcome="bypass",
                tenant=tenant,
                db=db,
                question=question,
                fingerprint=fingerprint,
                reason="schema_changed",
            )
        if mutate:
            tenant_view.fingerprints[db] = fingerprint

        signature = build_signature(question, schema)
        if signature.is_empty:
            if mutate:
                self._record("bypass", tenant)
            return SemcacheLookup(
                outcome="bypass",
                tenant=tenant,
                db=db,
                question=question,
                fingerprint=fingerprint,
                reason="unsignable",
            )

        key = f"{fingerprint}:{signature.key()}"
        entry = self._entries.get(key)
        if entry is not None:
            if mutate:
                # LRU touch: re-insert so eviction drops the coldest key.
                self._entries[key] = self._entries.pop(key)
                self._record("hit", tenant)
            notes = entry.get("notes")
            return SemcacheLookup(
                outcome="hit",
                tenant=tenant,
                db=db,
                question=question,
                fingerprint=fingerprint,
                key=key,
                sql=str(entry.get("sql", "")),
                notes=tuple(notes) if isinstance(notes, list) else (),
            )
        if mutate:
            self._record("miss", tenant)
        return SemcacheLookup(
            outcome="miss",
            tenant=tenant,
            db=db,
            question=question,
            fingerprint=fingerprint,
            key=key,
        )

    def lookup(
        self, tenant: str, schema: DatabaseSchema, question: str
    ) -> SemcacheLookup:
        """Classify a normal ask round (counts, invalidates, LRU-touches)."""
        with self._lock:
            return self._classify(tenant, schema, question, mutate=True)

    def peek(
        self, tenant: str, schema: DatabaseSchema, question: str
    ) -> SemcacheLookup:
        """Classify without mutating anything — the replay harness's view."""
        with self._lock:
            return self._classify(tenant, schema, question, mutate=False)

    def record_feedback_bypass(
        self, tenant: str, schema: DatabaseSchema, question: str
    ) -> SemcacheLookup:
        """A feedback/correction round: never read, never write."""
        with self._lock:
            self._record("bypass", tenant)
            return SemcacheLookup(
                outcome="bypass",
                tenant=tenant,
                db=schema.name,
                question=question,
                fingerprint=schema_fingerprint(schema),
                reason="feedback",
            )

    # -- writes -------------------------------------------------------------

    def store(
        self,
        lookup: SemcacheLookup,
        sql: str,
        notes: Optional[list[str]] = None,
    ) -> bool:
        """Record a successful answer for a prior ``miss``; False if refused.

        Refuses anything that is not a clean miss against the *current*
        fingerprint — bypassed rounds, errored rounds (callers must not
        offer those), and answers that raced a schema change.
        """
        if lookup.outcome != "miss" or lookup.key is None or not sql:
            return False
        with self._lock:
            view = self._tenants.get(lookup.tenant)
            if (
                view is None
                or view.fingerprints.get(lookup.db) != lookup.fingerprint
            ):
                return False
            # Insert at the end, the most recently used place.
            self._entries.pop(lookup.key, None)
            self._entries[lookup.key] = {
                "db": lookup.db,
                "question": lookup.question,
                "sql": sql,
                "notes": list(notes or []),
                "fingerprint": lookup.fingerprint,
            }
            while len(self._entries) > self._max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._stats["evictions"] += 1
                obs.count("semcache.evictions")
            return True

    def log_round(self, lookup: SemcacheLookup, kind: str) -> None:
        """Append one round to the replay question log (when persistent).

        Each round is one checksummed line (the run journal's format), so
        the reader verifies every line and skips a damaged one alone.
        """
        path = self._log_path()
        if path is None:
            return
        record = {
            "tenant": lookup.tenant,
            "db": lookup.db,
            "question": lookup.question,
            "kind": kind,
            "outcome": lookup.outcome,
            "reason": lookup.reason,
        }
        data = (checksummed_json(record) + "\n").encode("utf-8")
        with self._log_lock:
            if self._log_degraded:
                return
            try:
                fault_point("disk.semcache_log")
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "ab") as handle:
                    handle.write(data)
                    handle.flush()
            except OSError as error:
                self._log_degraded = True
                obs.count("durability.degraded", kind="semcache_log")
                obs.event(
                    "semcache.log_failed",
                    error=f"{type(error).__name__}: {error}",
                )

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            view = dict(self._stats)
            view["entries"] = len(self._entries)
            view["fingerprints"] = len(self._live_fingerprints())
            return view

    def _fingerprints_by_db(self) -> dict[str, list[str]]:
        """Every live display fingerprint per db name — possibly several,
        when tenants host different schemas under the same name."""
        by_db: dict[str, set[str]] = {}
        for view in self._tenants.values():
            for db, fingerprint in view.fingerprints.items():
                by_db.setdefault(db, set()).add(fingerprint)
        return {
            db: sorted(
                display_fingerprint(fingerprint) for fingerprint in prints
            )
            for db, prints in sorted(by_db.items())
        }

    def statusz_view(self) -> dict[str, object]:
        """The ``/statusz`` section: totals plus per-tenant breakdowns."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self._stats["hits"],
                "misses": self._stats["misses"],
                "bypasses": self._stats["bypasses"],
                "invalidations": self._stats["invalidations"],
                "evictions": self._stats["evictions"],
                "fingerprints": self._fingerprints_by_db(),
                "tenants": {
                    tenant: {
                        "hits": view.stats["hits"],
                        "misses": view.stats["misses"],
                        "bypasses": view.stats["bypasses"],
                        "fingerprints": {
                            db: display_fingerprint(fingerprint)
                            for db, fingerprint in sorted(
                                view.fingerprints.items()
                            )
                        },
                    }
                    for tenant, view in sorted(self._tenants.items())
                },
            }

    def clear(self) -> int:
        """Drop every entry (counters survive); returns how many were held."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            for view in self._tenants.values():
                view.fingerprints.clear()
            return dropped
