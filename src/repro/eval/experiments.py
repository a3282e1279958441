"""One experiment function per table/figure in the paper's evaluation.

* :func:`run_figure2`  — zero-shot accuracy, SPIDER vs Experience Platform.
* :func:`run_table2`   — % instances corrected: QueryRewrite vs
  FISQL(-Routing) vs FISQL.
* :func:`run_figure8`  — correction % over two feedback rounds.
* :func:`run_table3`   — FISQL with and without highlighting.

Each returns a small result dataclass; :mod:`repro.eval.reporting` renders
them in the paper's row/series format. The results also keep the
per-example records behind their numbers, from which
:mod:`repro.eval.predictions` builds one row per example and round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.core.feedback import Feedback
from repro.errors import LLMError
from repro.core.rewrite import QueryRewriteBaseline
from repro.core.session import CorrectionOutcome, RoundRecord
from repro.datasets.base import Example
from repro.eval.harness import ExperimentContext
from repro.eval.metrics import (
    PredictionRecord,
    correction_rate,
    evaluate_model,
    execution_correct,
    map_in_order,
)
from repro.sql.parser import parse_select


@dataclass
class Figure2Result:
    """Zero-shot execution accuracy on both datasets (percent)."""

    spider_accuracy: float
    aep_accuracy: float
    spider_total: int
    aep_total: int

    paper_spider: float = 68.6
    paper_aep: float = 24.0
    #: Dataset → the zero-shot prediction records behind each accuracy.
    records: dict[str, list[PredictionRecord]] = field(
        default_factory=dict, repr=False
    )


def run_figure2(context: ExperimentContext) -> Figure2Result:
    """Reproduce Figure 2 (zero-shot prompt of Figure 1 on both datasets)."""
    model = context.zero_shot_model()
    spider_report = evaluate_model(
        model,
        context.spider.benchmark,
        **context.eval_kwargs("zero_shot", "spider"),
    )
    aep_report = evaluate_model(
        model,
        context.aep_benchmark,
        **context.eval_kwargs("zero_shot", "aep"),
    )
    return Figure2Result(
        spider_accuracy=100.0 * spider_report.accuracy,
        aep_accuracy=100.0 * aep_report.accuracy,
        spider_total=spider_report.total,
        aep_total=aep_report.total,
        records={"spider": spider_report.records, "aep": aep_report.records},
    )


@dataclass
class CorrectionCell:
    """One (method, dataset) correction measurement."""

    method: str
    dataset: str
    corrected_percent: float
    n_errors: int
    outcomes: list[CorrectionOutcome] = field(default_factory=list)


@dataclass
class Table2Result:
    """Table 2: % instances corrected after one feedback round."""

    cells: list[CorrectionCell] = field(default_factory=list)
    #: Dataset → the annotated Assistant error set every cell corrects.
    errors: dict[str, list[PredictionRecord]] = field(
        default_factory=dict, repr=False
    )

    paper = {
        ("Query Rewrite", "aep"): 35.85,
        ("Query Rewrite", "spider"): 16.83,
        ("FISQL (- Routing)", "spider"): 43.56,
        ("FISQL", "aep"): 67.92,
        ("FISQL", "spider"): 44.55,
    }

    def cell(self, method: str, dataset: str) -> Optional[CorrectionCell]:
        for cell in self.cells:
            if cell.method == method and cell.dataset == dataset:
                return cell
        return None

    def percent(self, method: str, dataset: str) -> float:
        cell = self.cell(method, dataset)
        return cell.corrected_percent if cell is not None else float("nan")


def make_fisql_corrector(
    context: ExperimentContext,
    dataset: str,
    routing: bool,
    highlights: bool,
    max_rounds: int,
) -> Callable[[PredictionRecord], CorrectionOutcome]:
    """Build the per-record FISQL correction closure."""
    pipeline = context.fisql_pipeline(dataset, routing, highlights)
    annotator = context.annotator_for(dataset)
    benchmark = context.benchmark(dataset)

    def correct_one(record: PredictionRecord) -> CorrectionOutcome:
        database = benchmark.database(record.example.db_id)
        try:
            return pipeline.correct(
                example=record.example,
                database=database,
                initial_sql=record.predicted_sql,
                annotator=annotator,
                max_rounds=max_rounds,
            )
        except LLMError as error:
            return _failed_outcome(record.example.example_id, error)

    return correct_one


def _run_fisql(
    context: ExperimentContext,
    dataset: str,
    errors: list[PredictionRecord],
    routing: bool,
    highlights: bool,
    max_rounds: int,
) -> list[CorrectionOutcome]:
    correct_one = make_fisql_corrector(
        context, dataset, routing=routing, highlights=highlights,
        max_rounds=max_rounds,
    )
    scope = dict(
        context.scope("fisql", dataset),
        routing=routing,
        highlights=highlights,
        max_rounds=max_rounds,
    )
    return map_in_order(
        correct_one,
        errors,
        context.workers,
        context.journal,
        "correction",
        scope,
    )


def _failed_outcome(example_id: str, error: Exception) -> CorrectionOutcome:
    """Skip-and-record: an aborted session counts as uncorrected."""
    obs.count("eval.correction_failures")
    return CorrectionOutcome(
        example_id=example_id,
        corrected_round=None,
        failure=f"{type(error).__name__}: {error}",
    )


def make_query_rewrite_corrector(
    context: ExperimentContext, dataset: str
) -> Callable[[PredictionRecord], CorrectionOutcome]:
    """Build the per-record Query Rewrite baseline closure."""
    baseline = QueryRewriteBaseline(
        llm=context.llm, model=context.assistant_model(dataset)
    )
    annotator = context.annotator_for(dataset)
    benchmark = context.benchmark(dataset)

    def correct_one(record: PredictionRecord) -> CorrectionOutcome:
        example = record.example
        database = benchmark.database(example.db_id)
        outcome = CorrectionOutcome(
            example_id=example.example_id, corrected_round=None
        )
        feedback = _first_feedback(annotator, example, record.predicted_sql)
        if feedback is not None:
            try:
                step = baseline.incorporate(example.question, feedback, database)
            except LLMError as error:
                outcome = _failed_outcome(example.example_id, error)
            else:
                corrected = execution_correct(
                    database, example.gold_sql, step.prediction.sql
                )
                outcome.rounds.append(
                    RoundRecord(
                        round_index=1,
                        feedback_text=feedback.text,
                        feedback_type=None,
                        highlight=None,
                        sql_before=record.predicted_sql,
                        sql_after=step.prediction.sql,
                        corrected=corrected,
                        notes=[
                            f"rewritten question: {step.merged_question}",
                            *step.prediction.notes,
                        ],
                    )
                )
                if corrected:
                    outcome.corrected_round = 1
        return outcome

    return correct_one


def _run_query_rewrite(
    context: ExperimentContext,
    dataset: str,
    errors: list[PredictionRecord],
) -> list[CorrectionOutcome]:
    return map_in_order(
        make_query_rewrite_corrector(context, dataset),
        errors,
        context.workers,
        context.journal,
        "correction",
        context.scope("query_rewrite", dataset),
    )


def _first_feedback(
    annotator, example: Example, predicted_sql: str
) -> Optional[Feedback]:
    gold = parse_select(example.gold_sql)
    predicted = parse_select(predicted_sql)
    if gold is None or predicted is None:
        return None
    return annotator.give_feedback(
        example_id=example.example_id,
        question=example.question,
        gold=gold,
        predicted=predicted,
        round_index=1,
        use_highlights=False,
    )


def run_table2(context: ExperimentContext) -> Table2Result:
    """Reproduce Table 2 (one feedback round, three methods)."""
    result = Table2Result()
    for dataset in ("aep", "spider"):
        errors = context.error_set(dataset)
        result.errors[dataset] = errors
        qr = _run_query_rewrite(context, dataset, errors)
        result.cells.append(
            CorrectionCell(
                method="Query Rewrite",
                dataset=dataset,
                corrected_percent=correction_rate(qr, within_rounds=1),
                n_errors=len(errors),
                outcomes=qr,
            )
        )
        if dataset == "spider":
            no_routing = _run_fisql(
                context, dataset, errors, routing=False, highlights=False,
                max_rounds=1,
            )
            result.cells.append(
                CorrectionCell(
                    method="FISQL (- Routing)",
                    dataset=dataset,
                    corrected_percent=correction_rate(no_routing, within_rounds=1),
                    n_errors=len(errors),
                    outcomes=no_routing,
                )
            )
        fisql = _run_fisql(
            context, dataset, errors, routing=True, highlights=False,
            max_rounds=1,
        )
        result.cells.append(
            CorrectionCell(
                method="FISQL",
                dataset=dataset,
                corrected_percent=correction_rate(fisql, within_rounds=1),
                n_errors=len(errors),
                outcomes=fisql,
            )
        )
    return result


@dataclass
class Figure8Result:
    """Figure 8: correction % by feedback round on SPIDER errors."""

    fisql_by_round: list[float] = field(default_factory=list)
    no_routing_by_round: list[float] = field(default_factory=list)
    n_errors: int = 0
    #: Each method's sessions; ``corrected_percent`` is the last round's.
    cells: list[CorrectionCell] = field(default_factory=list, repr=False)
    #: The annotated Assistant error set both methods correct (SPIDER).
    errors: dict[str, list[PredictionRecord]] = field(
        default_factory=dict, repr=False
    )

    paper_note = (
        "one additional feedback round improves each approach by ~15%; "
        "FISQL (- Routing) matches FISQL after two rounds"
    )


def run_figure8(context: ExperimentContext, rounds: int = 2) -> Figure8Result:
    """Reproduce Figure 8 (multi-round feedback on SPIDER errors)."""
    errors = context.error_set("spider")
    fisql = _run_fisql(
        context, "spider", errors, routing=True, highlights=False,
        max_rounds=rounds,
    )
    no_routing = _run_fisql(
        context, "spider", errors, routing=False, highlights=False,
        max_rounds=rounds,
    )
    result = Figure8Result(n_errors=len(errors), errors={"spider": errors})
    for round_index in range(1, rounds + 1):
        result.fisql_by_round.append(
            correction_rate(fisql, within_rounds=round_index)
        )
        result.no_routing_by_round.append(
            correction_rate(no_routing, within_rounds=round_index)
        )
    for method, outcomes in (
        ("FISQL", fisql),
        ("FISQL (- Routing)", no_routing),
    ):
        result.cells.append(
            CorrectionCell(
                method=method,
                dataset="spider",
                corrected_percent=correction_rate(outcomes, within_rounds=rounds),
                n_errors=len(errors),
                outcomes=outcomes,
            )
        )
    return result


@dataclass
class Table3Result:
    """Table 3: highlighting ablation."""

    fisql_aep: float = 0.0
    fisql_spider: float = 0.0
    highlighting_aep: float = 0.0
    highlighting_spider: float = 0.0
    n_aep: int = 0
    n_spider: int = 0
    #: Each method's sessions, per dataset.
    cells: list[CorrectionCell] = field(default_factory=list, repr=False)
    #: Dataset → the annotated Assistant error set both methods correct.
    errors: dict[str, list[PredictionRecord]] = field(
        default_factory=dict, repr=False
    )

    paper = {
        ("FISQL", "aep"): 67.92,
        ("FISQL", "spider"): 44.55,
        ("FISQL (+ Highlighting)", "aep"): 69.81,
        ("FISQL (+ Highlighting)", "spider"): 44.55,
    }


def run_table3(context: ExperimentContext) -> Table3Result:
    """Reproduce Table 3 (highlights as additional grounding)."""
    result = Table3Result()
    for dataset in ("aep", "spider"):
        errors = context.error_set(dataset)
        plain = _run_fisql(
            context, dataset, errors, routing=True, highlights=False,
            max_rounds=1,
        )
        highlighted = _run_fisql(
            context, dataset, errors, routing=True, highlights=True,
            max_rounds=1,
        )
        plain_rate = correction_rate(plain, within_rounds=1)
        highlight_rate = correction_rate(highlighted, within_rounds=1)
        result.errors[dataset] = errors
        for method, outcomes, rate in (
            ("FISQL", plain, plain_rate),
            ("FISQL (+ Highlighting)", highlighted, highlight_rate),
        ):
            result.cells.append(
                CorrectionCell(
                    method=method,
                    dataset=dataset,
                    corrected_percent=rate,
                    n_errors=len(errors),
                    outcomes=outcomes,
                )
            )
        if dataset == "aep":
            result.fisql_aep = plain_rate
            result.highlighting_aep = highlight_rate
            result.n_aep = len(errors)
        else:
            result.fisql_spider = plain_rate
            result.highlighting_spider = highlight_rate
            result.n_spider = len(errors)
    return result
