"""Evaluation metrics: execution accuracy and correction rate."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro import obs
from repro.core.nl2sql import Nl2SqlModel
from repro.core.session import CorrectionOutcome
from repro.datasets.base import Benchmark, Example
from repro.errors import LLMError, SqlError
from repro.sql.comparison import query_is_ordered, results_match
from repro.sql.engine import Database
from repro.sql.engine import QueryResult
from repro.sql.parser import parse_query

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class PredictionRecord:
    """One example's prediction and its execution verdict.

    ``failed`` marks examples whose prediction never materialized (the LLM
    backend failed after retries); they score as incorrect but are kept in
    the report so degradation is visible rather than silently dropped.
    """

    example: Example
    predicted_sql: str
    correct: bool
    failed: bool = False
    notes: list[str] = field(default_factory=list)


@dataclass
class AccuracyReport:
    """Execution accuracy over a benchmark."""

    records: list[PredictionRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def correct(self) -> int:
        return sum(1 for record in self.records if record.correct)

    @property
    def accuracy(self) -> float:
        if not self.records:
            return 0.0
        return self.correct / self.total

    @property
    def failed(self) -> int:
        """Examples whose prediction failed outright (backend giveups)."""
        return sum(1 for record in self.records if record.failed)

    def errors(self) -> list[PredictionRecord]:
        """The mispredicted examples (the raw error set)."""
        return [record for record in self.records if not record.correct]

    def failures(self) -> list[PredictionRecord]:
        """The skip-and-record examples (no prediction produced)."""
        return [record for record in self.records if record.failed]

    def by_hardness(self) -> dict[str, tuple[int, int]]:
        """SPIDER-style breakdown: hardness → (correct, total)."""
        buckets: dict[str, list[int]] = {}
        for record in self.records:
            bucket = buckets.setdefault(record.example.hardness, [0, 0])
            bucket[1] += 1
            if record.correct:
                bucket[0] += 1
        return {
            hardness: (correct, total)
            for hardness, (correct, total) in sorted(buckets.items())
        }

    def by_trap_kind(self) -> dict[str, tuple[int, int]]:
        """Breakdown by planted difficulty: kind → (correct, total)."""
        buckets: dict[str, list[int]] = {}
        for record in self.records:
            kind = record.example.trap_kind or "untrapped"
            bucket = buckets.setdefault(kind, [0, 0])
            bucket[1] += 1
            if record.correct:
                bucket[0] += 1
        return {
            kind: (correct, total)
            for kind, (correct, total) in sorted(buckets.items())
        }


def execution_correct(
    database: Database, gold_sql: str, predicted_sql: str
) -> bool:
    """Single-example execution-accuracy verdict."""
    gold_ast = parse_query(gold_sql)
    gold_result = database.execute_ast(gold_ast)
    if not isinstance(gold_result, QueryResult):
        raise SqlError(
            f"gold query did not produce rows (got {type(gold_result).__name__})"
        )
    try:
        predicted_ast = parse_query(predicted_sql)
        predicted_result = database.execute_ast(predicted_ast)
    except SqlError:
        return False
    if not isinstance(predicted_result, QueryResult):
        return False
    return results_match(
        gold_result, predicted_result, ordered=query_is_ordered(gold_ast)
    )


def _failed_record(example: Example, error: LLMError) -> PredictionRecord:
    """Skip-and-record: one dead backend call must not abort a sweep."""
    obs.count("eval.skipped_examples")
    obs.count("eval.examples", correct=False)
    return PredictionRecord(
        example=example,
        predicted_sql="",
        correct=False,
        failed=True,
        notes=[f"prediction failed ({error})"],
    )


def _scored_record(
    benchmark: Benchmark, example: Example, predicted_sql: str, notes: list[str]
) -> PredictionRecord:
    correct = execution_correct(
        benchmark.database(example.db_id), example.gold_sql, predicted_sql
    )
    obs.count("eval.examples", correct=correct)
    return PredictionRecord(
        example=example,
        predicted_sql=predicted_sql,
        correct=correct,
        notes=notes,
    )


def map_in_order(
    run_one: Callable[[T], R],
    items: Sequence[T],
    workers: int = 1,
    journal=None,
    kind: str = "",
    scope: Optional[dict] = None,
) -> list[R]:
    """``run_one`` of each item, in item order.

    ``workers > 1`` runs the items on that many threads (at most one per
    item). Each result is a deterministic function of its item (model and
    annotator draws are keyed by the example), so the list equals the
    sequential one whichever thread finishes first.

    With a ``journal`` (a :class:`repro.durability.RunJournal`), an item
    journaled under ``scope`` replays instead of running, and each fresh
    result is journaled as ``kind`` the moment it is ready
    (:data:`repro.eval.journaling.CODECS` keys and encodes each kind). At
    one worker the fresh items are journaled in item order, so a resumed
    run's results equal an uninterrupted run's.
    """
    settle = run_one
    if journal is not None:
        from repro.eval.journaling import CODECS

        key_of, encode, decode = CODECS[kind]

        def settle(item: T) -> R:
            key = key_of(scope or {}, item)
            hit = journal.replay(key)
            if hit is not None:
                return decode(item, hit["value"])
            result = run_one(item)
            journal.append(key, kind, encode(result))
            return result

    if workers <= 1 or len(items) <= 1:
        return [settle(item) for item in items]
    with ThreadPoolExecutor(
        max_workers=min(workers, len(items)), thread_name_prefix="eval"
    ) as executor:
        return list(executor.map(settle, items))


def evaluate_model(
    model: Nl2SqlModel,
    benchmark: Benchmark,
    examples: Optional[Sequence[Example]] = None,
    workers: int = 1,
    journal=None,
    scope: Optional[dict] = None,
) -> AccuracyReport:
    """Run a model over a benchmark and score execution accuracy.

    ``workers``, ``journal`` and ``scope`` go to :func:`map_in_order`:
    worker threads leave the records byte-identical to a sequential run,
    and a journal makes the sweep resumable, its keys namespaced by
    ``scope`` (see :mod:`repro.eval.journaling`).
    """
    pool = list(examples if examples is not None else benchmark.examples)

    def score(example: Example) -> PredictionRecord:
        database = benchmark.database(example.db_id)
        try:
            prediction = model.predict(example.question, database)
        except LLMError as error:
            return _failed_record(example, error)
        return _scored_record(
            benchmark, example, prediction.sql, prediction.notes
        )

    with obs.span(
        "eval.evaluate_model", benchmark=benchmark.name, n=len(pool)
    ) as sp:
        report = AccuracyReport(
            map_in_order(score, pool, workers, journal, "prediction", scope)
        )
        sp.set("accuracy", report.accuracy)
        sp.set("failed", report.failed)
    return report


def correction_rate(
    outcomes: Iterable[CorrectionOutcome], within_rounds: int = 1
) -> float:
    """Percentage of error instances corrected within N feedback rounds."""
    outcomes = list(outcomes)
    if not outcomes:
        return 0.0
    corrected = sum(
        1 for outcome in outcomes if outcome.corrected_by(within_rounds)
    )
    return 100.0 * corrected / len(outcomes)
