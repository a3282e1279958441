"""Routing classifier and feedback-demonstration store tests."""

import pytest

from repro import obs
from repro.core.feedback import (
    ADD,
    EDIT,
    FEEDBACK_TYPE_EXAMPLES,
    FEEDBACK_TYPES,
    REMOVE,
    FeedbackDemoStore,
)
from repro.core.routing import FeedbackRouter, classify_feedback
from repro.errors import LLMTimeoutError
from repro.llm.simulated import SimulatedLLM


class TestClassifier:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("order the names in ascending order.", ADD),
            ("do not give descriptions", REMOVE),
            ("we are in 2024", EDIT),
            ("provide song name instead of singer name", EDIT),
            ("only include the active ones", ADD),
            ("remove the condition on status", REMOVE),
            ("remove duplicates from the results", ADD),
            ("count each country only once", ADD),
            ("sum the sales instead of counting", EDIT),
            ("drop the price column", REMOVE),
            ("sort in descending order", EDIT),
            ("limit it to 10", ADD),
            ("audiences means segments", EDIT),
        ],
    )
    def test_classification(self, text, expected):
        assert classify_feedback(text) == expected

    def test_table1_examples_classified_correctly(self):
        """The paper's Table 1 exemplars route to their own types."""
        for label, text in FEEDBACK_TYPE_EXAMPLES.items():
            assert classify_feedback(text) == label

    def test_default_is_edit(self):
        assert classify_feedback("hmm") == EDIT


class _FixedLabelLLM:
    """A stub model that answers every routing prompt with a fixed label."""

    def __init__(self, label):
        self._label = label

    def complete(self, prompt):
        from repro.llm.interface import Completion

        return Completion(text=self._label)


class _CountingLLM:
    """The simulated model, counting prompts; fails the first ``failures``."""

    def __init__(self, failures=0):
        self.prompts = []
        self._failures = failures
        self._model = SimulatedLLM()

    def complete(self, prompt):
        self.prompts.append(prompt.payload["feedback"])
        if self._failures:
            self._failures -= 1
            raise LLMTimeoutError("scripted timeout")
        return self._model.complete(prompt)


class TestRouter:
    def test_router_uses_llm(self):
        router = FeedbackRouter(SimulatedLLM())
        assert router.route("we are in 2024") == EDIT
        assert router.route("do not give descriptions") == REMOVE
        assert router.route("order the names in ascending order.") == ADD

    @pytest.mark.parametrize(
        "text",
        [
            "hmm",
            "that's odd",
            "???",
            "",
            "the result looks wrong somehow but I can't say why",
        ],
    )
    def test_unroutable_feedback_falls_back_to_edit(self, text):
        """Ambiguous/contentless feedback takes the catch-all Edit route."""
        assert FeedbackRouter(SimulatedLLM()).route(text) == EDIT

    @pytest.mark.parametrize(
        "label", ["Addendum", "yes", "", "add remove edit", "ADD!"]
    )
    def test_unknown_model_label_falls_back_to_edit(self, label):
        """A label outside add/remove/edit must not leak downstream."""
        assert FeedbackRouter(_FixedLabelLLM(label)).route("whatever") == EDIT

    @pytest.mark.parametrize(
        "label,expected",
        [("Add", ADD), ("  REMOVE \n", REMOVE), ("edit", EDIT)],
    )
    def test_label_normalization(self, label, expected):
        """Case/whitespace variants of valid labels still route."""
        assert FeedbackRouter(_FixedLabelLLM(label)).route("x") == expected


class TestRouterMemo:
    """A router sends each feedback text to the model once."""

    def test_a_repeated_text_makes_one_routing_completion(self):
        llm = _CountingLLM()
        router = FeedbackRouter(llm)
        obs.enable(max_spans=0)
        try:
            labels = [router.route(text) for text in ("we are in 2024",) * 3]
            labels.append(router.route("do not give descriptions"))
            decisions = obs.get_metrics().counter_total("routing.decisions")
        finally:
            obs.disable()
        assert labels == [EDIT, EDIT, EDIT, REMOVE]
        assert llm.prompts == ["we are in 2024", "do not give descriptions"]
        assert decisions == 4

    def test_a_failed_call_keeps_nothing_and_is_retried(self):
        llm = _CountingLLM(failures=1)
        router = FeedbackRouter(llm)
        with pytest.raises(LLMTimeoutError):
            router.route("we are in 2024")
        assert router.route("we are in 2024") == EDIT
        assert router.route("we are in 2024") == EDIT
        assert llm.prompts == ["we are in 2024"] * 2


class TestDemoStore:
    def test_default_store_covers_all_types(self):
        store = FeedbackDemoStore.default()
        for feedback_type in FEEDBACK_TYPES:
            assert store.for_type(feedback_type), feedback_type

    def test_typed_demos_are_figure5_blocks(self):
        store = FeedbackDemoStore.default()
        block = store.for_type(EDIT)[0]
        assert "received the following feedback" in block
        assert "please rewrite the SQL query" in block

    def test_generic_is_one_per_type(self):
        store = FeedbackDemoStore.default()
        generic = store.generic()
        assert len(generic) == len(
            [t for t in FEEDBACK_TYPES if store.for_type(t)]
        )

    def test_typed_has_more_coverage_than_generic_for_edit(self):
        store = FeedbackDemoStore.default()
        assert len(store.for_type(EDIT)) >= 2

    def test_unknown_type_is_empty(self):
        assert FeedbackDemoStore.default().for_type("nope") == []
