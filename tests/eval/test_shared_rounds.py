"""Artifacts share one context's correction rounds, error sets and retrievals.

Table 3's plain FISQL cells and Figure 8's first round correct the same
error set as Table 2, with the same pipeline and annotator, so they reuse
Table 2's rounds and report the same sessions. Each test builds a fresh
context over the cached small suites, so no earlier test's rounds or
retrievals are in its memos.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.eval.experiments import run_figure8, run_table2, run_table3
from repro.eval.harness import ExperimentContext, build_context


def _fresh(workers: int = 1) -> ExperimentContext:
    built = build_context(scale="small")
    return ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
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
