"""ChatSession conversation-state tests."""

import pytest

from repro.core.chat import ChatSession
from repro.core.feedback import FeedbackDemoStore
from repro.core.nl2sql import Nl2SqlModel
from repro.core.retrieval import DemonstrationRetriever
from repro.errors import LLMError, ReproError, TransientLLMError
from repro.llm.interface import (
    KIND_FEEDBACK,
    KIND_NL2SQL,
    KIND_ROUTING,
    Completion,
)
from repro.llm.simulated import SimulatedLLM


class _ScriptedLLM:
    """SimulatedLLM that fails the prompt kinds in ``fail_kinds`` and
    answers ``empty_kinds`` with a blank completion; records every prompt."""

    def __init__(self):
        self._inner = SimulatedLLM()
        self.fail_kinds = set()
        self.empty_kinds = set()
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if prompt.kind in self.fail_kinds:
            raise TransientLLMError(f"injected failure for {prompt.kind}")
        if prompt.kind in self.empty_kinds:
            return Completion(text="  ")
        return self._inner.complete(prompt)

    def feedback_prompts(self):
        return [p for p in self.prompts if p.kind == KIND_FEEDBACK]


def _session(aep_db, aep_suite, llm):
    _traffic, demos = aep_suite
    model = Nl2SqlModel(llm=llm, retriever=DemonstrationRetriever(demos))
    return ChatSession(aep_db, model)


@pytest.fixture()
def session(aep_db, aep_suite):
    return _session(aep_db, aep_suite, SimulatedLLM())


@pytest.fixture()
def llm():
    return _ScriptedLLM()


@pytest.fixture()
def scripted(aep_db, aep_suite, llm):
    return _session(aep_db, aep_suite, llm)


class TestAsk:
    def test_ask_returns_response(self, session):
        response = session.ask("How many segments are there?")
        assert response.result.scalar() == 20
        assert session.current_sql == "SELECT COUNT(*) FROM hkg_dim_segment"

    def test_turns_recorded(self, session):
        session.ask("How many segments are there?")
        assert [t.role for t in session.turns] == ["user", "assistant"]

    def test_new_question_resets_context(self, session):
        session.ask("How many segments are there?")
        session.ask("How many destinations are there?")
        assert "destination" in session.current_sql


class TestFeedback:
    def test_feedback_before_question_raises(self, session):
        with pytest.raises(ReproError):
            session.give_feedback("we are in 2024")

    def test_year_correction_flow(self, session):
        session.ask("How many audiences were created in January?")
        assert "'2023-01-01'" in session.current_sql
        response = session.give_feedback("we are in 2024")
        assert "'2024-01-01'" in session.current_sql
        assert response.result is not None

    def test_multiple_feedback_rounds_accumulate(self, session):
        session.ask("List the audiences created in January.")
        assert "description" in session.current_sql
        # The editor's calibrated demonstration-coverage miss may eat one
        # round (it is deterministic per turn); a real user just repeats.
        for _attempt in range(3):
            session.give_feedback("do not give descriptions")
            if "description" not in session.current_sql:
                break
        assert "description" not in session.current_sql
        session.give_feedback("we are in 2024")
        assert "'2024-01-01'" in session.current_sql
        assert "description" not in session.current_sql

    def test_highlight_passthrough(self, session):
        session.ask("List the names of the datasets that are ready to use.")
        before = session.current_sql
        session.give_feedback(
            "change to 'active'", highlight="FROM hkg_dim_dataset"
        )
        assert session.current_sql != before
        assert "status = 'active'" in session.current_sql

    def test_uninterpretable_feedback_keeps_sql(self, session):
        session.ask("How many segments are there?")
        before = session.current_sql
        session.give_feedback("hmm, not sure about this")
        assert session.current_sql == before


class TestTranscript:
    def test_transcript_contains_all_turns(self, session):
        session.ask("How many audiences were created in January?")
        session.give_feedback("we are in 2024")
        transcript = session.transcript()
        assert transcript.count("User:") == 2
        assert transcript.count("Assistant:") == 2
        assert "we are in 2024" in transcript

    def test_highlight_shown_in_transcript(self, session):
        session.ask("List the names of the datasets that are ready to use.")
        session.give_feedback(
            "change to 'active'", highlight="FROM hkg_dim_dataset"
        )
        assert "[highlighted: FROM hkg_dim_dataset]" in session.transcript()


class TestFailedTurns:
    """A failed model call leaves the conversation as it was."""

    def test_failed_ask_records_nothing_and_retry_recovers(self, scripted, llm):
        llm.fail_kinds = {KIND_NL2SQL}
        with pytest.raises(LLMError):
            scripted.ask("How many segments are there?")
        assert scripted.turns == []
        assert scripted.transcript() == ""
        assert scripted.state() == {"turns": [], "question": None, "sql": None}

        llm.fail_kinds = set()
        scripted.ask("How many segments are there?")
        assert [t.role for t in scripted.turns] == ["user", "assistant"]
        assert scripted.current_sql == "SELECT COUNT(*) FROM hkg_dim_segment"

    def test_failed_feedback_records_nothing_and_retry_recovers(
        self, scripted, llm
    ):
        scripted.ask("How many audiences were created in January?")
        state, transcript = scripted.state(), scripted.transcript()

        llm.fail_kinds = {KIND_FEEDBACK}
        with pytest.raises(LLMError):
            scripted.give_feedback("we are in 2024")
        assert scripted.state() == state
        assert scripted.transcript() == transcript
        assert [t.role for t in scripted.turns] == ["user", "assistant"]

        llm.fail_kinds = set()
        scripted.give_feedback("we are in 2024")
        assert [t.role for t in scripted.turns] == [
            "user",
            "assistant",
            "user",
            "assistant",
        ]
        assert "'2024-01-01'" in scripted.current_sql
        # The key counts the round's own user turn, failed attempt or not.
        assert [p.payload["context_key"] for p in llm.feedback_prompts()] == [
            "chat:3",
            "chat:3",
        ]


class TestSharedRound:
    """Chat feedback runs the sweep's round, degradations included."""

    def test_routing_failure_answers_from_generic_demos(self, scripted, llm):
        scripted.ask("How many audiences were created in January?")
        llm.fail_kinds = {KIND_ROUTING}
        # The editor's calibrated coverage miss eats this turn's first
        # round (deterministic per turn); the user repeats, as in the
        # -Routing ablation's second round.
        for _attempt in range(2):
            response = scripted.give_feedback("we are in 2024")
            assert response.prediction.notes[0].startswith("routing failed (")
        assert "'2024-01-01'" in scripted.current_sql
        generic = FeedbackDemoStore.default().generic()
        for prompt in llm.feedback_prompts():
            assert prompt.payload["feedback_type"] is None
            assert prompt.payload["feedback_demos"] == generic

    def test_empty_completion_keeps_current_sql(self, scripted, llm):
        scripted.ask("How many audiences were created in January?")
        before = scripted.current_sql
        llm.empty_kinds = {KIND_FEEDBACK}
        response = scripted.give_feedback("we are in 2024")
        assert scripted.current_sql == before
        assert response.sql == before
        assert response.result is not None
        assert "empty completion; kept previous SQL" in response.prediction.notes

    def test_each_session_routes_a_feedback_text_once(
        self, aep_db, aep_suite, llm
    ):
        # A session's router keeps its labels, so the memo is bounded by
        # one conversation; a second session over the same model routes
        # the text again.
        for _session_index in range(2):
            session = _session(aep_db, aep_suite, llm)
            session.ask("How many audiences were created in January?")
            for _attempt in range(2):
                session.give_feedback("we are in 2024")
        routed = [prompt for prompt in llm.prompts if prompt.kind == KIND_ROUTING]
        assert len(routed) == 2
        assert len(llm.feedback_prompts()) == 4
