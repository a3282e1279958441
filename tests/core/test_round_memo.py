"""The round memo: a FISQL pipeline runs each correction round once.

A round is keyed by everything it reads besides the pipeline: the
annotator and the database (by identity), the example's id, question and
gold SQL, the round index and the SQL before the round. A session that
repeats an earlier one reuses its rounds, and gets records of its own.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.nl2sql import Nl2SqlModel
from repro.core.session import FisqlPipeline
from repro.core.user import AnnotatorConfig, SimulatedAnnotator
from repro.datasets.base import Example
from repro.llm.interface import KIND_FEEDBACK, Completion
from repro.llm.simulated import SimulatedLLM

EXAMPLE = Example(
    example_id="year-1",
    db_id="experience_platform",
    question="How many segments were created in January?",
    gold_sql=(
        "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
        "'2024-01-01' AND createdtime < '2024-02-01'"
    ),
    trap_kind="default_year",
)
INITIAL = (
    "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
    "'2023-01-01' AND createdtime < '2023-02-01'"
)
ROLLBACK = "revision unparseable; rolled back to previous SQL"


class _CountingLLM:
    """The simulated LLM, counting feedback prompts; junk SQL on demand."""

    def __init__(self, garbage: bool = False) -> None:
        self._inner = SimulatedLLM()
        self._garbage = garbage
        self.feedback_calls = 0

    def complete(self, prompt):
        if prompt.kind != KIND_FEEDBACK:
            return self._inner.complete(prompt)
        self.feedback_calls += 1
        if self._garbage:
            return Completion(text="SELEKT broken ((")
        return self._inner.complete(prompt)


class _CountingAnnotator(SimulatedAnnotator):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.feedback_calls = 0

    def give_feedback(self, *args, **kwargs):
        self.feedback_calls += 1
        return super().give_feedback(*args, **kwargs)


def _annotator(schema, **rates) -> _CountingAnnotator:
    rates = {"vague_rate": 0.0, "misaligned_rate": 0.0, **rates}
    return _CountingAnnotator(schema, AnnotatorConfig(**rates))


def _pipeline(llm) -> FisqlPipeline:
    return FisqlPipeline(model=Nl2SqlModel(llm=llm), llm=llm, routing=True)


def _correct(pipeline, database, annotator, initial=INITIAL, max_rounds=1):
    return pipeline.correct(
        example=EXAMPLE,
        database=database,
        initial_sql=initial,
        annotator=annotator,
        max_rounds=max_rounds,
    )


@pytest.fixture()
def counters():
    obs.enable(max_spans=0)
    try:
        yield lambda name: obs.get_metrics().counter_total(name)
    finally:
        obs.disable()


def test_a_repeated_session_runs_no_round_and_counts_every_round(
    aep_db, counters
):
    llm = _CountingLLM()
    pipeline = _pipeline(llm)
    annotator = _annotator(aep_db.schema)
    first = _correct(pipeline, aep_db, annotator)
    second = _correct(pipeline, aep_db, annotator)
    assert first.corrected_round == 1
    assert second == first
    assert second.rounds[0] is not first.rounds[0]
    assert llm.feedback_calls == 1
    assert annotator.feedback_calls == 1
    assert counters("correction.sessions") == 2
    assert counters("correction.rounds") == 2
    assert counters("correction.corrected") == 2
    assert counters("correction.feedback_types") == 2
    assert counters("correction.rounds_reused") == 1


def test_each_session_gets_its_own_record(aep_db):
    """``correct`` appends the rollback note to the session's record, so a
    shared record would carry the note once per session."""
    pipeline = _pipeline(_CountingLLM(garbage=True))
    annotator = _annotator(aep_db.schema)
    outcomes = [_correct(pipeline, aep_db, annotator) for _ in range(3)]
    for outcome in outcomes:
        assert outcome.rounds[0].notes.count(ROLLBACK) == 1


def test_a_longer_session_reuses_the_rounds_it_shares(aep_db, counters):
    llm = _CountingLLM(garbage=True)
    pipeline = _pipeline(llm)
    annotator = _annotator(aep_db.schema)
    one = _correct(pipeline, aep_db, annotator, max_rounds=1)
    two = _correct(pipeline, aep_db, annotator, max_rounds=2)
    assert two.rounds[:1] == one.rounds
    assert len(two.rounds) == 2
    assert llm.feedback_calls == 2
    assert counters("correction.rounds_reused") == 1
    assert counters("correction.parse_regressions") == 3


def test_a_second_annotator_gets_its_own_feedback(aep_db):
    pipeline = _pipeline(_CountingLLM())
    exact = _annotator(aep_db.schema)
    misaligned = _annotator(aep_db.schema, misaligned_rate=1.0)
    assert _correct(pipeline, aep_db, exact).corrected
    shared = _correct(pipeline, aep_db, misaligned)
    alone = _correct(_pipeline(_CountingLLM()), aep_db, misaligned)
    assert shared == alone
    assert shared.rounds[0].feedback_text != "we are in 2024"


def test_a_round_without_feedback_is_memoized(aep_db, counters):
    pipeline = _pipeline(_CountingLLM())
    annotator = _annotator(aep_db.schema)
    for _ in range(2):
        outcome = _correct(pipeline, aep_db, annotator, initial=EXAMPLE.gold_sql)
        assert outcome.rounds == []
    assert annotator.feedback_calls == 1
    assert counters("correction.rounds") == 0
    assert counters("correction.rounds_reused") == 0


def test_each_sql_before_the_round_is_its_own_key(aep_db):
    llm = _CountingLLM()
    pipeline = _pipeline(llm)
    annotator = _annotator(aep_db.schema)
    _correct(pipeline, aep_db, annotator)
    other = INITIAL.replace("2023-01-01", "2022-01-01")
    outcome = _correct(pipeline, aep_db, annotator, initial=other)
    assert outcome.rounds[0].sql_before == other
    assert llm.feedback_calls == 2
