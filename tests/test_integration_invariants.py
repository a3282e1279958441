"""Cross-module invariants over the small-scale end-to-end pipeline.

These are the properties a downstream user implicitly relies on, checked
over real (generated) workloads rather than hand-picked cases.
"""

import pytest

from repro.eval.experiments import _run_fisql, _run_query_rewrite
from repro.eval.harness import build_context
from repro.eval.metrics import evaluate_model
from repro.errors import SqlError
from repro.sql import ast
from repro.sql.parser import parse_query


@pytest.fixture(scope="module")
def context():
    return build_context(scale="small")


@pytest.fixture(scope="module")
def spider_errors(context):
    return context.error_set("spider")


@pytest.fixture(scope="module")
def fisql_outcomes(context, spider_errors):
    return _run_fisql(
        context, "spider", spider_errors, routing=True, highlights=False,
        max_rounds=2,
    )


class TestSqlValidityInvariants:
    def test_every_revision_parses(self, fisql_outcomes):
        """FISQL never emits unparseable SQL (edits are AST-level)."""
        for outcome in fisql_outcomes:
            for record in outcome.rounds:
                parse_query(record.sql_after)

    def test_every_revision_executes(self, context, spider_errors, fisql_outcomes):
        by_id = {r.example.example_id: r for r in spider_errors}
        for outcome in fisql_outcomes:
            example = by_id[outcome.example_id].example
            database = context.spider.benchmark.database(example.db_id)
            for record in outcome.rounds:
                database.query(record.sql_after)  # must not raise

    def test_noop_rounds_keep_sql_identical(self, fisql_outcomes):
        for outcome in fisql_outcomes:
            for record in outcome.rounds:
                if "could not interpret" in " ".join(record.notes):
                    assert record.sql_after == record.sql_before


class TestSessionInvariants:
    def test_correction_is_terminal(self, fisql_outcomes):
        """Once corrected, the session stops."""
        for outcome in fisql_outcomes:
            if outcome.corrected_round is not None:
                assert outcome.rounds[-1].round_index == outcome.corrected_round
                assert outcome.rounds[-1].corrected

    def test_corrected_by_is_monotone(self, fisql_outcomes):
        for outcome in fisql_outcomes:
            assert (not outcome.corrected_by(1)) or outcome.corrected_by(2)

    def test_round_indices_sequential(self, fisql_outcomes):
        for outcome in fisql_outcomes:
            indices = [r.round_index for r in outcome.rounds]
            assert indices == list(range(1, len(indices) + 1))

    def test_outcomes_align_with_error_set(self, spider_errors, fisql_outcomes):
        assert [o.example_id for o in fisql_outcomes] == [
            r.example.example_id for r in spider_errors
        ]


class TestDeterminismInvariants:
    def test_fisql_outcomes_reproducible(self, context, spider_errors):
        first = _run_fisql(
            context, "spider", spider_errors, routing=True, highlights=False,
            max_rounds=1,
        )
        second = _run_fisql(
            context, "spider", spider_errors, routing=True, highlights=False,
            max_rounds=1,
        )
        assert [o.corrected_round for o in first] == [
            o.corrected_round for o in second
        ]
        assert [
            [r.feedback_text for r in o.rounds] for o in first
        ] == [[r.feedback_text for r in o.rounds] for o in second]

    def test_query_rewrite_reproducible(self, context, spider_errors):
        first = _run_query_rewrite(context, "spider", spider_errors)
        second = _run_query_rewrite(context, "spider", spider_errors)
        assert [o.corrected for o in first] == [o.corrected for o in second]


class TestEvaluationInvariants:
    def test_predictions_always_parse(self, context):
        """The simulated model always emits syntactically valid SQL."""
        report = context.assistant_report("spider")
        for record in report.records:
            parse_query(record.predicted_sql)

    def test_hardness_breakdown_sums(self, context):
        report = context.assistant_report("spider")
        breakdown: dict[str, list[int]] = {}
        for record in report.records:
            bucket = breakdown.setdefault(record.example.hardness, [0, 0])
            bucket[0] += record.correct
            bucket[1] += 1
        assert sum(total for _c, total in breakdown.values()) == report.total
        assert sum(correct for correct, _t in breakdown.values()) == (
            report.correct
        )

    def test_trap_breakdown_traps_hurt(self, context):
        """Accuracy on untrapped questions exceeds overall trapped accuracy."""
        report = evaluate_model(
            context.zero_shot_model(), context.spider.benchmark
        )
        breakdown = report.by_trap_kind()
        untrapped_correct, untrapped_total = breakdown["untrapped"]
        trapped_correct = sum(
            c for kind, (c, _t) in breakdown.items() if kind != "untrapped"
        )
        trapped_total = sum(
            t for kind, (_c, t) in breakdown.items() if kind != "untrapped"
        )
        assert untrapped_correct / untrapped_total > 0.95
        assert trapped_correct / trapped_total < 0.10

    def test_feedback_round_notes_are_strings(self, fisql_outcomes):
        for outcome in fisql_outcomes:
            for record in outcome.rounds:
                assert all(isinstance(n, str) for n in record.notes)


class TestGoldAstShapes:
    def test_all_gold_queries_are_selects(self, context):
        for example in context.spider.benchmark.examples:
            assert isinstance(parse_query(example.gold_sql), ast.Select)

    def test_foil_always_differs_from_gold_text(self, context):
        for example in context.spider.benchmark.trapped_examples():
            foil = example.trap_meta.get("foil_sql")
            if foil:
                assert foil != example.gold_sql
