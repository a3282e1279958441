"""Artifacts share one context's correction rounds, error sets and retrievals.

Table 3's plain FISQL cells and Figure 8's first round correct the same
error set as Table 2, with the same pipeline and annotator, so they reuse
Table 2's rounds and report the same sessions. Each test builds a fresh
context over the cached small suites, so no earlier test's rounds or
retrievals are in its memos.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.core.feedback import Feedback, Highlight
from repro.core.user import SimulatedAnnotator
from repro.eval.experiments import run_figure8, run_table2, run_table3
from repro.eval.harness import ExperimentContext, build_context
from repro.llm.interface import KIND_ROUTING
from repro.llm.simulated import SimulatedLLM
from repro.sql.parser import parse_select
from repro.sql.printer import print_select


def _fresh(workers: int = 1, llm=None) -> ExperimentContext:
    built = build_context(scale="small")
    return ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
        llm=llm or SimulatedLLM(),
        workers=workers,
    )


def _outcomes(result, method: str, dataset: str):
    for cell in result.cells:
        if (cell.method, cell.dataset) == (method, dataset):
            return cell.outcomes
    raise AssertionError(f"no {method} cell for {dataset}")


@pytest.fixture()
def counter():
    obs.enable(max_spans=0)
    try:
        yield lambda name: obs.get_metrics().counter_total(name)
    finally:
        obs.disable()


def test_table3_fisql_cells_reuse_table2s_rounds(counter):
    context = _fresh()
    table2 = run_table2(context)
    assert counter("correction.rounds_reused") == 0
    table3 = run_table3(context)
    rounds = 0
    for dataset in ("aep", "spider"):
        plain = _outcomes(table3, "FISQL", dataset)
        assert plain == _outcomes(table2, "FISQL", dataset)
        assert table3.errors[dataset] == table2.errors[dataset]
        rounds += sum(len(outcome.rounds) for outcome in plain)
    assert rounds > 0
    assert counter("correction.rounds_reused") == rounds


def test_figure8_first_round_repeats_table2():
    context = _fresh()
    table2 = run_table2(context)
    figure8 = run_figure8(context)
    for method in ("FISQL", "FISQL (- Routing)"):
        two_rounds = _outcomes(figure8, method, "spider")
        one_round = _outcomes(table2, method, "spider")
        assert [o.rounds[:1] for o in two_rounds] == [o.rounds for o in one_round]
        assert [o.corrected_by(1) for o in two_rounds] == [
            o.corrected for o in one_round
        ]


def test_error_sets_are_computed_once_and_handed_out_as_copies():
    context = _fresh()
    first = context.error_set("spider")
    first.clear()
    assert context.error_set("spider")
    assert context.annotator_for("aep") is context.annotator_for("aep")


def test_two_workers_give_the_outcomes_of_one():
    results = []
    for workers in (1, 2):
        context = _fresh(workers)
        table2, figure8, table3 = (
            run_table2(context),
            run_figure8(context),
            run_table3(context),
        )
        results.append(
            [
                (cell.method, cell.dataset, cell.outcomes)
                for result in (table2, figure8, table3)
                for cell in result.cells
            ]
        )
    assert results[0] == results[1]


@pytest.fixture()
def given_feedback(monkeypatch):
    """Every feedback the per-database annotators compute, by its key."""
    keys: list[tuple] = []
    give = SimulatedAnnotator.give_feedback

    def counting(annotator, **kwargs):
        keys.append(
            (
                kwargs["example_id"],
                print_select(kwargs["gold"]),
                print_select(kwargs["predicted"]),
                kwargs["round_index"],
                kwargs["use_highlights"],
            )
        )
        return give(annotator, **kwargs)

    monkeypatch.setattr(SimulatedAnnotator, "give_feedback", counting)
    return keys


def test_each_rounds_feedback_is_computed_once_per_context(given_feedback):
    context = _fresh()
    run_table2(context)
    run_figure8(context)
    run_table3(context)
    assert given_feedback
    assert len(given_feedback) == len(set(given_feedback))


def test_the_annotator_answers_a_key_once_with_the_computed_feedback(
    given_feedback,
):
    context = _fresh()
    annotator = context.annotator_for("spider")
    record = context.error_set("spider")[0]
    example = record.example
    request = dict(
        example_id=example.example_id,
        question=example.question,
        gold=parse_select(example.gold_sql),
        predicted=parse_select(record.predicted_sql),
        round_index=1,
        use_highlights=True,
    )
    first = annotator.give_feedback(**request)
    assert annotator.give_feedback(**request) is first
    assert len(given_feedback) == 1
    annotator.give_feedback(**dict(request, round_index=2))
    annotator.give_feedback(**dict(request, use_highlights=False))
    assert len(given_feedback) == 3
    schema = context.benchmark("spider").database(example.db_id).schema
    fresh = SimulatedAnnotator(schema, annotator._config)
    assert first == fresh.give_feedback(**request)


def test_queries_are_keyed_by_their_text_not_their_tree(given_feedback):
    context = _fresh()
    annotator = context.annotator_for("spider")
    example = context.benchmark("spider").examples[0]
    gold = parse_select(example.gold_sql)
    integer, real = parse_select("SELECT 7"), parse_select("SELECT 7.0")
    # Equal trees (7 == 7.0) that a user sees as different queries.
    assert integer == real
    for predicted in (integer, real):
        annotator.give_feedback(
            example_id=example.example_id,
            question=example.question,
            gold=gold,
            predicted=predicted,
            round_index=1,
        )
    assert len(given_feedback) == 2


def test_each_feedback_text_is_routed_once_per_context():
    routed: list[str] = []

    class RecordingLLM(SimulatedLLM):
        def complete(self, prompt):
            if prompt.kind == KIND_ROUTING:
                routed.append(prompt.payload["feedback"])
            return super().complete(prompt)

    context = _fresh(llm=RecordingLLM())
    run_table2(context)
    run_table3(context)
    assert routed
    assert len(routed) == len(set(routed))


def test_feedback_is_frozen():
    feedback = Feedback("we are in 2024", Highlight("2023", 0, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        feedback.highlight = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        feedback.highlight.text = "2024"
