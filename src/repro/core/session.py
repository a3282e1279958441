"""FISQL correction sessions: the multi-round feedback loop.

``FisqlPipeline.revise`` is the paper's two-step procedure for one round:
(1) routing — classify the feedback type and retrieve type-specific
revision demonstrations (Figure 5); (2) re-prompt the NL2SQL model with the
previous SQL, the feedback, and those demonstrations (Figure 6). The
``routing=False`` ablation skips step (1) and uses the small generic
demonstration set instead. ``correct`` runs up to N rounds against a
simulated annotator, where ``highlights=True`` lets the user attach a
SQL-span highlight to ground the feedback (Table 3); chat sessions call
``revise`` with a real user's feedback.

A pipeline keeps the record of every round ``correct`` has run, keyed by
everything the round reads, so a session that repeats an earlier one
(Table 3's plain cells, Figure 8's first round) reuses its rounds
(DESIGN.md, "Each correction round and retrieval runs once per context").
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.core.feedback import FeedbackDemoStore
from repro.core.nl2sql import Nl2SqlModel
from repro.core.routing import FeedbackRouter
from repro.core.user import SimulatedAnnotator
from repro.datasets.base import Example
from repro.errors import LLMError, SqlError
from repro.llm.interface import ChatModel
from repro.llm.prompts import feedback_prompt
from repro.sql import ast
from repro.sql.comparison import query_is_ordered, results_match
from repro.sql.engine import Database
from repro.sql.engine import QueryResult
from repro.sql.parser import parse_query, parse_select


@dataclass
class RoundRecord:
    """What happened in one feedback round.

    ``degraded`` marks rounds where regeneration failed (LLM error after
    retries, or an empty completion) and the previous SQL was kept — the
    round happened, produced nothing, and the session moved on.
    """

    round_index: int
    feedback_text: str
    feedback_type: Optional[str]
    highlight: Optional[str]
    sql_before: str
    sql_after: str
    corrected: bool
    degraded: bool = False
    notes: list[str] = field(default_factory=list)


@dataclass
class CorrectionOutcome:
    """The result of a multi-round correction session.

    ``failure`` is set by the experiment runners when the whole session
    aborted on a backend failure (skip-and-record); such outcomes count as
    uncorrected in every rate.
    """

    example_id: str
    corrected_round: Optional[int]  # 1-based; None = never corrected
    rounds: list[RoundRecord] = field(default_factory=list)
    failure: Optional[str] = None

    @property
    def corrected(self) -> bool:
        return self.corrected_round is not None

    def corrected_by(self, round_index: int) -> bool:
        """Whether the query was fixed within the first N rounds."""
        return (
            self.corrected_round is not None
            and self.corrected_round <= round_index
        )


@dataclass
class Revision:
    """What one FISQL correction step produced (:meth:`FisqlPipeline.revise`).

    ``degraded`` marks a revision that kept the previous SQL because the
    model returned nothing or failed; on a failure ``error`` holds the
    :class:`~repro.errors.LLMError`, for callers that must surface it.
    """

    sql: str
    feedback_type: Optional[str]
    notes: list[str]
    degraded: bool = False
    error: Optional[LLMError] = None


class FisqlPipeline:
    """The FISQL feedback-incorporation pipeline."""

    def __init__(
        self,
        model: Nl2SqlModel,
        llm: Optional[ChatModel] = None,
        routing: bool = True,
        highlights: bool = False,
        router: Optional[FeedbackRouter] = None,
    ) -> None:
        self._model = model
        self._llm = llm or model.llm
        self._routing = routing
        self._highlights = highlights
        self._demo_store = FeedbackDemoStore.default()
        # A router keeps every label it was given, so pipelines over one
        # model may share one (an experiment context does).
        self._router = router or FeedbackRouter(self._llm)
        self._lock = threading.Lock()
        #: Every round :meth:`correct` has run (None: no feedback), as
        #: :meth:`_run_round` returned it, by what the round reads.
        self._rounds: dict[tuple, Optional[RoundRecord]] = {}

    def revise(
        self,
        database: Database,
        question: str,
        previous_sql: str,
        feedback: str,
        highlight: Optional[str] = None,
        context_key: str = "",
    ) -> Revision:
        """One correction step: route the feedback, then re-prompt.

        Routing picks the feedback type's revision demos (Figure 5); a
        failed routing call falls back to the generic set, as the
        ``routing=False`` ablation always does. The Figure 6 prompt then
        carries the previous SQL, the feedback, those demos and the RAG
        demos. An empty or failed completion keeps the previous SQL.
        """
        feedback_type: Optional[str] = None
        notes: list[str] = []
        if self._routing:
            try:
                feedback_type = self._router.route(feedback)
            except LLMError as error:
                # Routing is an optimization, not a requirement.
                obs.count("resilience.degraded", stage="routing")
                notes.append(f"routing failed ({error}); generic demos")
        feedback_demos = (
            self._demo_store.generic()
            if feedback_type is None
            else self._demo_store.for_type(feedback_type)
        )
        rag_demos = []
        if self._model.retriever is not None:
            rag_demos = self._model.retriever.retrieve(
                question, db_id=database.schema.name
            )
        prompt = feedback_prompt(
            schema=database.schema,
            question=question,
            previous_sql=previous_sql,
            feedback=feedback,
            demos=rag_demos,
            feedback_demos=feedback_demos,
            feedback_type=feedback_type,
            highlight=highlight,
            context_key=context_key,
        )
        try:
            completion = self._llm.complete(prompt)
        except LLMError as error:
            notes.append(f"regeneration failed ({error}); kept previous SQL")
            return Revision(
                previous_sql, feedback_type, notes, degraded=True, error=error
            )
        notes.extend(completion.notes)
        sql = completion.text.strip().rstrip(";")
        if not sql:
            obs.count("correction.empty_completions")
            obs.count("resilience.degraded", stage="empty_completion")
            notes.append("empty completion; kept previous SQL")
            return Revision(previous_sql, feedback_type, notes, degraded=True)
        return Revision(sql, feedback_type, notes)

    def correct(
        self,
        example: Example,
        database: Database,
        initial_sql: str,
        annotator: SimulatedAnnotator,
        max_rounds: int = 1,
    ) -> CorrectionOutcome:
        """Run up to ``max_rounds`` of feedback-driven correction."""
        gold = parse_query(example.gold_sql)
        if not isinstance(gold, ast.Select):
            raise SqlError("gold queries are expected to be plain SELECTs")
        gold_result = _run(database, gold)
        ordered = query_is_ordered(gold)

        outcome = CorrectionOutcome(example_id=example.example_id, corrected_round=None)
        current_sql = initial_sql
        current = parse_select(current_sql)

        obs.count("correction.sessions")
        with obs.span(
            "correction.session",
            example_id=example.example_id,
            routing=self._routing,
            highlights=self._highlights,
        ) as session_span:
            for round_index in range(1, max_rounds + 1):
                if current is None:
                    break
                record = self._round(
                    example=example,
                    database=database,
                    annotator=annotator,
                    gold=gold,
                    gold_result=gold_result,
                    ordered=ordered,
                    current=current,
                    current_sql=current_sql,
                    round_index=round_index,
                )
                if record is None:
                    break
                _count_round(record)
                outcome.rounds.append(record)
                revised = parse_select(record.sql_after)
                if revised is None:
                    # The model's revision does not parse: keep the SQL text
                    # and the AST in lockstep at the previous round's query so
                    # the next round's feedback matches what the record shows.
                    record.notes.append(
                        "revision unparseable; rolled back to previous SQL"
                    )
                    obs.count("correction.parse_regressions")
                else:
                    current_sql = record.sql_after
                    current = revised
                if record.corrected:
                    outcome.corrected_round = round_index
                    break
            session_span.set("rounds", len(outcome.rounds))
            session_span.set("corrected_round", outcome.corrected_round)
        return outcome

    def _round(
        self,
        example: Example,
        database: Database,
        annotator: SimulatedAnnotator,
        current_sql: str,
        round_index: int,
        **derived,
    ) -> Optional[RoundRecord]:
        """One feedback round, run once per key: a copy of its record.

        The key holds everything the round reads besides this pipeline
        (``derived`` is parsed or run from it); the annotator and the
        database count by identity. Each session gets a record of its
        own, since :meth:`correct` appends notes to it.
        """
        key = (
            annotator,
            database,
            example.example_id,
            example.question,
            example.gold_sql,
            round_index,
            current_sql,
        )
        with self._lock:
            record = self._rounds.get(key, _UNSEEN)
        if record is _UNSEEN:
            record = self._run_round(
                example=example,
                database=database,
                annotator=annotator,
                current_sql=current_sql,
                round_index=round_index,
                **derived,
            )
            with self._lock:
                self._rounds[key] = record
        elif record is not None:
            obs.count("correction.rounds_reused")
        if record is None:
            return None
        return dataclasses.replace(record, notes=list(record.notes))

    def _run_round(
        self,
        example: Example,
        database: Database,
        annotator: SimulatedAnnotator,
        gold: ast.Select,
        gold_result: QueryResult,
        ordered: bool,
        current: ast.Select,
        current_sql: str,
        round_index: int,
    ) -> Optional[RoundRecord]:
        """One feedback round; None when the annotator has nothing to say."""
        with obs.span("correction.round", round=round_index) as round_span:
            feedback = annotator.give_feedback(
                example_id=example.example_id,
                question=example.question,
                gold=gold,
                predicted=current,
                round_index=round_index,
                use_highlights=self._highlights,
            )
            if feedback is None:
                round_span.set("feedback", False)
                return None

            highlight = feedback.highlight.text if feedback.highlight else None
            revision = self.revise(
                database,
                example.question,
                current_sql,
                feedback.text,
                highlight=highlight,
                context_key=f"{example.example_id}:{round_index}",
            )
            if revision.error is not None:
                # The round happened and produced nothing; the next round
                # gets a fresh chance.
                obs.count("resilience.degraded", stage="regeneration")
            corrected = not revision.degraded and _matches(
                database, gold_result, revision.sql, ordered
            )
            round_span.set("feedback_type", revision.feedback_type)
            round_span.set("highlight", highlight is not None)
            round_span.set("corrected", corrected)
            round_span.set("degraded", revision.degraded)
            return RoundRecord(
                round_index=round_index,
                feedback_text=feedback.text,
                feedback_type=revision.feedback_type,
                highlight=highlight,
                sql_before=current_sql,
                sql_after=revision.sql,
                corrected=corrected,
                degraded=revision.degraded,
                notes=revision.notes,
            )


#: A round key no round has run under yet (None is a round's answer).
_UNSEEN = object()


def _count_round(record: RoundRecord) -> None:
    """Count a session's round, whether it ran or was reused."""
    obs.count("correction.rounds", round=record.round_index)
    obs.count(
        "correction.feedback_types", type=record.feedback_type or "unrouted"
    )
    if record.highlight is not None:
        obs.count("correction.highlighted_rounds")
    if record.corrected:
        obs.count("correction.corrected", round=record.round_index)


def _run(database: Database, query: ast.Query) -> QueryResult:
    result = database.execute_ast(query)
    if not isinstance(result, QueryResult):
        # A bare assert here would be stripped under ``python -O`` and let
        # a DDL/DML-shaped gold query fall through with a non-result.
        raise SqlError(
            f"gold query did not produce rows (got {type(result).__name__})"
        )
    return result


def _matches(
    database: Database, gold_result: QueryResult, sql: str, ordered: bool
) -> bool:
    try:
        parsed = parse_query(sql)
        result = database.execute_ast(parsed)
    except SqlError:
        return False
    if not isinstance(result, QueryResult):
        return False
    return results_match(gold_result, result, ordered=ordered)
