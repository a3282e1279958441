"""Evaluation metrics: execution accuracy and correction rate."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro import obs
from repro.core.nl2sql import Nl2SqlModel
from repro.core.session import CorrectionOutcome
from repro.datasets.base import Benchmark, Example
from repro.errors import LLMError, SqlError
from repro.sql.comparison import query_is_ordered, results_match
from repro.sql.engine import Database
from repro.sql.engine import QueryResult
from repro.sql.parser import parse_query


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


def _evaluate_examples(
    model: Nl2SqlModel,
    benchmark: Benchmark,
    pool: Sequence[Example],
    journal=None,
    scope: Optional[dict] = None,
) -> list[PredictionRecord]:
    """Score a contiguous run of examples (one worker's shard).

    With a ``journal``, already-journaled examples replay from it and only
    the rest are predicted; each freshly computed record is journaled the
    moment it is scored. The returned list keeps pool order regardless of
    the replay/compute mix, so a resumed run's records are identical to an
    uninterrupted run's.
    """
    slots: list[Optional[PredictionRecord]] = [None] * len(pool)
    pending: list[tuple[int, Example, Optional[str]]] = []
    if journal is not None:
        from repro.eval.journaling import prediction_from_dict, prediction_key

        for index, example in enumerate(pool):
            key = prediction_key(scope or {}, example)
            hit = journal.replay(key)
            if hit is not None:
                slots[index] = prediction_from_dict(example, hit["value"])
            else:
                pending.append((index, example, key))
    else:
        pending = [(index, example, None) for index, example in enumerate(pool)]

    def settle(index: int, key: Optional[str], record: PredictionRecord) -> None:
        if journal is not None and key is not None:
            from repro.eval.journaling import prediction_to_dict

            journal.append(key, "prediction", prediction_to_dict(record))
        slots[index] = record

    for index, example, key in pending:
        database = benchmark.database(example.db_id)
        try:
            prediction = model.predict(example.question, database)
        except LLMError as error:
            settle(index, key, _failed_record(example, error))
            continue
        settle(
            index,
            key,
            _scored_record(
                benchmark, example, prediction.sql, prediction.notes
            ),
        )
    return [record for record in slots if record is not None]


def shard_examples(
    pool: Sequence[Example], workers: int
) -> list[list[Example]]:
    """Contiguous, near-equal shards (empty shards are dropped).

    Contiguity + concatenation in shard order is what makes the parallel
    merge deterministic: the merged record list equals the sequential one
    regardless of which worker finished first.
    """
    workers = max(1, workers)
    pool = list(pool)
    shards: list[list[Example]] = []
    base, extra = divmod(len(pool), workers)
    cursor = 0
    for worker in range(workers):
        size = base + (1 if worker < extra else 0)
        if size == 0:
            continue
        shards.append(pool[cursor : cursor + size])
        cursor += size
    return shards


def evaluate_model(
    model: Nl2SqlModel,
    benchmark: Benchmark,
    examples: Optional[Sequence[Example]] = None,
    workers: int = 1,
    journal=None,
    scope: Optional[dict] = None,
) -> AccuracyReport:
    """Run a model over a benchmark and score execution accuracy.

    ``workers > 1`` shards the pool across worker threads (contiguous
    shards, merged back in shard order — results are byte-identical to a
    sequential run); a pool of at most one example runs sequentially.
    ``journal`` (a :class:`repro.durability.RunJournal`) makes the sweep
    resumable: journaled examples replay, fresh ones are computed and
    journaled; ``scope`` namespaces the journal keys (see
    :mod:`repro.eval.journaling`).
    """
    report = AccuracyReport()
    pool = list(examples if examples is not None else benchmark.examples)
    with obs.span(
        "eval.evaluate_model", benchmark=benchmark.name, n=len(pool)
    ) as sp:
        if workers <= 1 or len(pool) <= 1:
            report.records.extend(
                _evaluate_examples(model, benchmark, pool, journal, scope)
            )
        else:
            shards = shard_examples(pool, workers)
            with ThreadPoolExecutor(
                max_workers=len(shards), thread_name_prefix="eval"
            ) as executor:
                futures = [
                    executor.submit(
                        _evaluate_examples,
                        model,
                        benchmark,
                        shard,
                        journal,
                        scope,
                    )
                    for shard in shards
                ]
                for future in futures:
                    report.records.extend(future.result())
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
