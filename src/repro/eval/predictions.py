"""Per-example prediction rows behind the paper artifacts.

Spider's evaluation keeps each example's predicted query next to its
verdict, failures included. These rows do the same for every prediction
behind Figure 2, Table 2, Figure 8 and Table 3: one row per artifact,
condition, dataset, example and round.

* Round 0 is the model's first answer: condition ``zero-shot`` in
  Figure 2, and ``Assistant`` (the annotated error set the methods
  correct) in the three correction artifacts.
* Rounds 1 and up are one correction method's revisions; the condition
  is the method's row label (``FISQL``, ``Query Rewrite``, ...).

A row holds the predicted SQL, its verdict, its notes (or the session's
failure), and a short sha256 of :func:`~repro.sql.comparison.result_fingerprint`
of the SQL run on the example's database (``"<error>"`` when it does not
run). :func:`row_digests` reduces rows to one short digest per row key:
the prediction goldens pin those, so a changed golden names each example
whose row changed, appeared or disappeared. :func:`suite_digests` does
the same for what set-up builds: each table's rows and each example.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.datasets.base import Example
from repro.errors import SqlError
from repro.eval.experiments import (
    Figure2Result,
    run_figure2,
    run_figure8,
    run_table2,
    run_table3,
)
from repro.eval.harness import ExperimentContext
from repro.sql.comparison import result_fingerprint

#: The ``result`` of a row whose SQL does not parse or execute.
ERROR_RESULT = "<error>"

#: Artifact name → runner, in the order a sweep renders them.
ARTIFACTS = {
    "figure2": run_figure2,
    "table2": run_table2,
    "figure8": run_figure8,
    "table3": run_table3,
}


@dataclass(frozen=True)
class PredictionRow:
    """One prediction of one example in one round of one artifact."""

    artifact: str
    condition: str
    dataset: str
    example_id: str
    round: int
    sql: str
    correct: bool
    notes: tuple[str, ...]
    result: str

    @property
    def key(self) -> str:
        """``artifact/condition/dataset/example_id/round``."""
        return (
            f"{self.artifact}/{self.condition}/{self.dataset}/"
            f"{self.example_id}/{self.round}"
        )

    @property
    def digest(self) -> str:
        """Short sha256 of everything the row says about its key."""
        return _short_sha256(
            json.dumps(
                [self.sql, self.correct, list(self.notes), self.result],
                ensure_ascii=False,
            )
        )


def sweep_rows(context: ExperimentContext) -> list[PredictionRow]:
    """Run the four artifacts on ``context``; every row, in sweep order."""
    rows: list[PredictionRow] = []
    for artifact, run in ARTIFACTS.items():
        rows.extend(prediction_rows(context, artifact, run(context)))
    return rows


def prediction_rows(
    context: ExperimentContext, artifact: str, result
) -> list[PredictionRow]:
    """The rows of one artifact's result, as its runner returned it."""
    fingerprints: dict[tuple[str, str, str], str] = {}

    def row(
        dataset: str,
        example: Example,
        condition: str,
        round_index: int,
        sql: str,
        correct: bool,
        notes,
    ) -> PredictionRow:
        key = (dataset, example.db_id, sql)
        if key not in fingerprints:
            database = context.benchmark(dataset).database(example.db_id)
            fingerprints[key] = _result_digest(database, sql)
        return PredictionRow(
            artifact=artifact,
            condition=condition,
            dataset=dataset,
            example_id=example.example_id,
            round=round_index,
            sql=sql,
            correct=correct,
            notes=tuple(notes),
            result=fingerprints[key],
        )

    if isinstance(result, Figure2Result):
        condition, first = "zero-shot", result.records
    else:
        condition, first = "Assistant", result.errors
    rows = [
        row(dataset, record.example, condition, 0, record.predicted_sql,
            record.correct, record.notes)
        for dataset, records in first.items()
        for record in records
    ]
    for cell in getattr(result, "cells", ()):
        examples = {
            record.example.example_id: record.example
            for record in result.errors[cell.dataset]
        }
        for outcome in cell.outcomes:
            example = examples[outcome.example_id]
            for record in outcome.rounds:
                rows.append(
                    row(cell.dataset, example, cell.method, record.round_index,
                        record.sql_after, record.corrected, record.notes)
                )
            if outcome.failure is not None:
                rows.append(
                    row(cell.dataset, example, cell.method,
                        len(outcome.rounds) + 1, "", False, [outcome.failure])
                )
    return rows


def row_digests(rows: list[PredictionRow]) -> dict[str, str]:
    """Row key → row digest; raises on a key two rows share."""
    digests: dict[str, str] = {}
    for row in rows:
        if row.key in digests:
            raise ValueError(f"duplicate prediction row {row.key!r}")
        digests[row.key] = row.digest
    return digests


def suite_digests(context: ExperimentContext) -> dict[str, str]:
    """Key → short digest of everything set-up builds: each table's rows
    in rowid order (``<dataset>/db/<db_id>/<table>``), each example
    (``<dataset>/dev/<example_id>``, SPIDER's train split under
    ``spider/train``) and each AEP demonstration (``aep/demo/<index>``).
    The suite goldens pin these, so a changed golden names each table or
    example that set-up no longer builds the same."""
    digests: dict[str, str] = {}
    for dataset in ("spider", "aep"):
        benchmark = context.benchmark(dataset)
        for db_id, database in benchmark.databases.items():
            for table in database.schema.tables:
                rows = database.data(table.name).rows
                digests[f"{dataset}/db/{db_id}/{table.key}"] = _short_sha256(
                    repr(rows)
                )
        for example in benchmark.examples:
            digests[f"{dataset}/dev/{example.example_id}"] = _short_sha256(
                repr(example)
            )
    for example in context.spider.train_examples:
        digests[f"spider/train/{example.example_id}"] = _short_sha256(repr(example))
    for index, demo in enumerate(context.aep_demos):
        digests[f"aep/demo/{index}"] = _short_sha256(repr(demo))
    return digests


def digest_changes(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per row key whose digest changed, appeared or disappeared."""
    lines = []
    for key in sorted(expected.keys() | actual.keys()):
        if key not in actual:
            lines.append(f"disappeared: {key}")
        elif key not in expected:
            lines.append(f"appeared:    {key}")
        elif expected[key] != actual[key]:
            lines.append(f"changed:     {key}")
    return lines


def _result_digest(database, sql: str) -> str:
    try:
        result = database.query(sql)
    except SqlError:
        return ERROR_RESULT
    return _short_sha256(repr(result_fingerprint(result)))


def _short_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def read_digests(path) -> dict[str, str]:
    """A golden file written by :func:`write_digests`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_digests(path, digests: dict[str, str]) -> None:
    """One ``"key": "digest"`` entry per line, sorted by key."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(digests, indent=0, sort_keys=True) + "\n")
