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
from repro.datasets.spider import SpiderSuite
from repro.eval import harness
from repro.eval.experiments import run_figure8, run_table2, run_table3
from repro.eval.harness import ExperimentContext, build_context
from repro.llm import simulated
from repro.llm.interface import KIND_ROUTING
from repro.llm.simulated import SimulatedLLM
from repro.sql.parser import Parser, parse_select
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


def test_queries_are_keyed_by_their_tree_not_their_equality(given_feedback):
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


def _first_request(context: ExperimentContext) -> dict:
    record = context.error_set("spider")[0]
    example = record.example
    return dict(
        example_id=example.example_id,
        question=example.question,
        gold=parse_select(example.gold_sql),
        predicted=parse_select(record.predicted_sql),
        round_index=1,
        use_highlights=True,
    )


def test_trees_that_print_alike_each_get_the_annotators_own_feedback(
    given_feedback,
):
    context = _fresh()
    annotator = context.annotator_for("spider")
    request = _first_request(context)
    sql = print_select(request["predicted"])
    twins = [Parser(sql).parse_query() for _ in range(2)]
    assert twins[0] is not twins[1] and print_select(twins[1]) == sql
    db_id = context.error_set("spider")[0].example.db_id
    schema = context.benchmark("spider").database(db_id).schema
    given = [
        annotator.give_feedback(**dict(request, predicted=twin)) for twin in twins
    ]
    assert len(given_feedback) == 2
    own = SimulatedAnnotator(schema, annotator._config)
    for twin, feedback in zip(twins, given):
        assert feedback is not None
        assert feedback == own.give_feedback(**dict(request, predicted=twin))


def test_a_hit_needs_both_trees_and_each_entry_keeps_them(given_feedback):
    context = _fresh()
    annotator = context.annotator_for("spider")
    request = _first_request(context)
    gold, predicted = request["gold"], request["predicted"]
    first = annotator.give_feedback(**request)
    assert annotator.give_feedback(**request) is first
    assert len(given_feedback) == 1
    gold_twin = Parser(print_select(gold)).parse_query()
    predicted_twin = Parser(print_select(predicted)).parse_query()
    annotator.give_feedback(**dict(request, predicted=predicted_twin))
    annotator.give_feedback(**dict(request, gold=gold_twin))
    assert len(given_feedback) == 3
    kept = [(entry[0], entry[1]) for entry in annotator._given.values()]
    assert len(kept) == 3
    for pair in ((gold, predicted), (gold, predicted_twin), (gold_twin, predicted)):
        assert any(k[0] is pair[0] and k[1] is pair[1] for k in kept)
    # An entry under the trees' ids answers only for the very same trees.
    key = next(
        key
        for key, entry in annotator._given.items()
        if entry[0] is gold and entry[1] is predicted
    )
    annotator._given[key] = (gold_twin, predicted_twin, "stale")
    assert annotator.give_feedback(**request) == first
    assert len(given_feedback) == 4


def test_a_sweep_gives_each_printed_requests_feedback_once(
    given_feedback, monkeypatch
):
    requested: list[tuple] = []
    give = harness._MultiDbAnnotator.give_feedback

    def recording(annotator, **kwargs):
        requested.append(
            (
                kwargs["example_id"],
                print_select(kwargs["gold"]),
                print_select(kwargs["predicted"]),
                kwargs["round_index"],
                kwargs["use_highlights"],
            )
        )
        return give(annotator, **kwargs)

    monkeypatch.setattr(harness._MultiDbAnnotator, "give_feedback", recording)
    context = _fresh()
    run_table2(context)
    run_figure8(context)
    run_table3(context)
    # As often as a memo keyed by printed text would compute, and no more.
    assert len(requested) > len(given_feedback) > 0
    assert len(given_feedback) == len(set(requested))


def test_contexts_over_one_suite_share_its_demonstrations(monkeypatch):
    built = build_context(scale="small")
    # A suite of its own, so no earlier test has taught its demonstrations.
    suite = SpiderSuite(
        benchmark=built.spider.benchmark,
        train_examples=built.spider.train_examples,
        generated=built.spider.generated,
    )
    assert suite == built.spider
    assert all(demo.conventions is None for demo in suite.demos)
    taught: list[int] = []
    taught_by = simulated._taught_by

    def counting(demo):
        taught.append(id(demo))
        return taught_by(demo)

    monkeypatch.setattr(simulated, "_taught_by", counting)
    contexts = [
        ExperimentContext(
            scale=built.scale,
            seed=built.seed,
            spider=suite,
            aep_benchmark=built.aep_benchmark,
            aep_demos=built.aep_demos,
        )
        for _ in range(2)
    ]
    counts = []
    for context in contexts:
        context.assistant_report("spider")
        counts.append(len(taught))
    assert 0 < counts[0] == counts[1]
    assert len(taught) == len(set(taught))
    first, second = (context._spider_retriever for context in contexts)
    assert first is not second
    for retriever in (first, second):
        assert len(retriever._demos) == len(suite.demos)
        assert all(a is b for a, b in zip(retriever._demos, suite.demos))


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
