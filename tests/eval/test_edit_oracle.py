"""The diff is an oracle: its operations turn each prediction into gold.

``diff_queries(gold, predicted)`` returns the edit operations that turn the
prediction into the gold query. For every Assistant error whose diff the
annotator accepts (one to three operations, the cap ``can_annotate``
applies before its annotate-rate draw), applying those operations to the
prediction in order must give a query that SQLite answers like gold. This
module checks both datasets of the small-scale suite;
``benchmarks/test_edit_oracle.py`` checks the paper-scale suite.
"""

from __future__ import annotations

from repro.core.user import AnnotatorConfig
from repro.errors import EditError
from repro.eval.harness import ExperimentContext, build_context
from repro.eval.metrics import execution_correct
from repro.sql.edits import diff_queries
from repro.sql.engine import Database
from repro.sql.parser import parse_select
from repro.sql.printer import print_select

SEED = 20250325


def oracle_failures(context: ExperimentContext) -> tuple[int, list[str]]:
    """(records checked, one line per record the diff does not fix)."""
    cap = AnnotatorConfig().max_expressible_deltas
    checked = 0
    failures: list[str] = []
    for dataset in ("spider", "aep"):
        benchmark = context.benchmark(dataset)
        for record in context.assistant_report(dataset).errors():
            gold = parse_select(record.example.gold_sql)
            edited = parse_select(record.predicted_sql)
            if gold is None or edited is None:
                continue
            operations = diff_queries(gold, edited)
            if not 1 <= len(operations) <= cap:
                continue
            checked += 1
            name = f"{dataset}/{record.example.example_id}"
            try:
                for operation in operations:
                    edited = operation.apply(edited)
            except EditError as exc:
                failures.append(f"{name}: {operation.describe()}: {exc}")
                continue
            database = benchmark.database(record.example.db_id)
            if not execution_correct(
                database, record.example.gold_sql, print_select(edited)
            ):
                failures.append(f"{name}: {print_select(edited)}")
    return checked, failures


def test_the_diff_turns_every_small_scale_error_into_gold():
    checked, failures = oracle_failures(build_context("small", SEED))
    assert checked == 59
    assert not failures, "\n".join(failures)


def test_the_diff_turns_a_dropped_join_and_a_leading_item_into_gold():
    # Two shapes no generated error has: a prediction that joins a table
    # gold lacks and qualifies its columns with the join's aliases, and a
    # select item gold lists before the prediction's.
    database = Database.from_ddl(
        "oracle",
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER);"
        "CREATE TABLE u (id INTEGER PRIMARY KEY, c INTEGER)",
    )
    database.execute("INSERT INTO t VALUES (1, 10, 100), (2, 20, 200)")
    database.execute("INSERT INTO u VALUES (1, 7)")
    for gold_sql, predicted_sql in (
        (
            "SELECT b FROM t",
            "SELECT T1.b FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id",
        ),
        ("SELECT b, a FROM t", "SELECT a FROM t"),
    ):
        edited = parse_select(predicted_sql)
        for operation in diff_queries(parse_select(gold_sql), edited):
            edited = operation.apply(edited)
        assert execution_correct(database, gold_sql, print_select(edited)), (
            print_select(edited)
        )
