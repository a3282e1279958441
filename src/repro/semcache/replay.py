"""Replay a recorded question log against the semantic store.

``fisql-repro semcache replay`` answers the operator question "if I
shipped this store, what would it serve, and where is it wrong?": every
recorded round is re-classified with :meth:`SemanticAnswerCache.peek`
(zero mutation — no counters move, no LRU touches, no invalidations),
and each hit's question is asked again of the live model, the one
``serve`` gives that database. A hit whose stored SQL differs from the
model's answer is a **divergence**: the cache would answer that question
differently than the model does, so would-have-been-wrong answers
surface before they reach users, not after.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.durability.atomic import read_checksummed_lines
from repro.llm.interface import ChatModel
from repro.semcache.store import LOG_FILENAME, SemanticAnswerCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.serve.server import CatalogEntry


def read_question_log(
    directory: Union[str, Path]
) -> tuple[list[dict[str, object]], int]:
    """The rounds ``questions.jsonl`` holds, and how many lines failed.

    Lines are read by the run journal's rule: a line whose bytes,
    envelope or checksum fail is skipped and counted, never fatal.
    """
    records: list[dict[str, object]] = []
    skipped = 0
    for payload in read_checksummed_lines(Path(directory) / LOG_FILENAME):
        if isinstance(payload, dict):
            records.append(payload)
        else:
            skipped += 1
    return records, skipped


def replay(
    cache: SemanticAnswerCache,
    catalog: Mapping[str, "CatalogEntry"],
    llm: ChatModel,
    records: list[dict[str, object]],
) -> dict[str, object]:
    """Re-run recorded rounds read-only; report breakdown + divergences.

    ``catalog`` maps each database name to its serve catalog entry, whose
    model over ``llm`` answers each hit again.
    """
    report: dict[str, object] = {
        "rounds": 0,
        "hits": 0,
        "misses": 0,
        "bypasses": 0,
        "feedback_rounds": 0,
        "unknown_databases": 0,
        "divergences": [],
    }
    divergences: list[dict[str, object]] = report["divergences"]  # type: ignore[assignment]
    for record in records:
        question = record.get("question")
        db = record.get("db")
        tenant = record.get("tenant")
        if not isinstance(question, str) or not isinstance(db, str):
            continue
        report["rounds"] = int(report["rounds"]) + 1
        if record.get("kind") == "feedback":
            # The guardrail is unconditional: feedback rounds bypass.
            report["feedback_rounds"] = int(report["feedback_rounds"]) + 1
            report["bypasses"] = int(report["bypasses"]) + 1
            continue
        entry = catalog.get(db)
        if entry is None:
            report["unknown_databases"] = int(report["unknown_databases"]) + 1
            report["bypasses"] = int(report["bypasses"]) + 1
            continue
        lookup = cache.peek(
            tenant if isinstance(tenant, str) else "replay",
            entry.database.schema,
            question,
        )
        if lookup.outcome == "hit":
            report["hits"] = int(report["hits"]) + 1
            model_sql = entry.model(llm).predict(question, entry.database).sql
            if model_sql != lookup.sql:
                divergences.append(
                    {
                        "tenant": lookup.tenant,
                        "db": db,
                        "question": question,
                        "model_sql": model_sql,
                        "cached_sql": lookup.sql,
                    }
                )
        elif lookup.outcome == "miss":
            report["misses"] = int(report["misses"]) + 1
        else:
            report["bypasses"] = int(report["bypasses"]) + 1
    report["divergence_count"] = len(divergences)
    return report


def _rate(part: int, total: int) -> str:
    if total <= 0:
        return "n/a"
    return f"{100.0 * part / total:.1f}%"


def render_replay_report(
    report: dict[str, object], limit: Optional[int] = 10
) -> str:
    """Human-readable replay summary for the CLI."""
    rounds = int(report.get("rounds", 0))
    hits = int(report.get("hits", 0))
    misses = int(report.get("misses", 0))
    bypasses = int(report.get("bypasses", 0))
    answered = hits + misses
    lines = [
        "semcache replay",
        f"  rounds:        {rounds}",
        f"  skipped lines: {int(report.get('skipped_lines', 0))}",
        f"  hits:          {hits} ({_rate(hits, answered)} of answerable)",
        f"  misses:        {misses}",
        f"  bypasses:      {bypasses}"
        f" (feedback: {int(report.get('feedback_rounds', 0))},"
        f" unknown db: {int(report.get('unknown_databases', 0))})",
    ]
    divergences = report.get("divergences")
    divergences = divergences if isinstance(divergences, list) else []
    lines.append(f"  divergences:   {len(divergences)}")
    shown = divergences if limit is None else divergences[:limit]
    for item in shown:
        lines.append(f"    [{item.get('db')}] {item.get('question')}")
        lines.append(f"      model:    {item.get('model_sql')}")
        lines.append(f"      cached:   {item.get('cached_sql')}")
    if limit is not None and len(divergences) > limit:
        lines.append(f"    ... and {len(divergences) - limit} more")
    return "\n".join(lines)
