"""Feedback-type identification (the paper's "routing" step).

A few-shot-prompted classifier mapping free-form feedback to Add / Remove /
Edit. The simulated classifier uses lexical cues — which is also how the
few-shot LLM classifier behaves in practice on this short-text task.
"""

from __future__ import annotations

import re

from repro import obs
from repro.core.feedback import ADD, EDIT, FEEDBACK_TYPE_EXAMPLES, REMOVE
from repro.llm.interface import ChatModel
from repro.llm.prompts import routing_prompt


def _compiled(*patterns: str) -> tuple[re.Pattern, ...]:
    return tuple(re.compile(pattern) for pattern in patterns)


#: "remove duplicates" asks to ADD a DISTINCT, not to remove a clause.
_DISTINCT_CUES = _compiled(r"\bremove duplicates\b", r"\bonly once\b")

_REMOVE_CUES = _compiled(
    r"\bdo not\b",
    r"\bdon't\b",
    r"\bremove\b",
    r"\bdrop\b",
    r"\bwithout\b",
    r"\bexclude\b",
    r"\bomit\b",
    r"\bno need\b",
    r"\bget rid of\b",
    r"\bskip the\b",
    r"\bleave out\b",
)

_EDIT_CUES = _compiled(
    r"\binstead of\b",
    r"\bshould be\b",
    r"\bchange\b",
    r"\bwe are in\b",
    r"\bit is \d{4}\b",
    r"\bmeans?\b",
    r"\breplace\b",
    r"\bwrong\b",
    r"\bnot the\b",
    r"\buse the\b",
    r"\bswitch\b",
    r"\bactually\b",
    r"\brather than\b",
    r"\bdescending\b",
    r"\bascending\b.*\bnot\b",
    r"\bsum\b.*\binstead\b",
    r"\bdistinct\b.*\bcount\b",
    r"\bcount\b.*\bdistinct\b",
)

_ADD_CUES = _compiled(
    r"\balso\b",
    r"\badd\b",
    r"\binclude\b",
    r"\bonly\b",
    r"\border the\b",
    r"\bsort the\b",
    r"\bgroup\b",
    r"\blimit\b",
    r"\bfilter\b",
    r"\bjoin\b",
    r"\bremove duplicates\b",
    r"\beach .* only once\b",
    r"\brestrict\b",
)


def classify_feedback(text: str) -> str:
    """Rule-of-thumb classification used by the simulated LLM."""
    lowered = text.lower()
    if any(cue.search(lowered) for cue in _DISTINCT_CUES):
        return ADD
    for cues, label in (
        (_REMOVE_CUES, REMOVE),
        (_EDIT_CUES, EDIT),
        (_ADD_CUES, ADD),
    ):
        if any(cue.search(lowered) for cue in cues):
            return label
    return EDIT


class FeedbackRouter:
    """Routes feedback to a type by prompting the (simulated) LLM.

    The router keeps each feedback text's label, so a text is sent to the
    model once per router: a sweep's routed rounds carry few distinct
    texts, and each chat session has a router of its own.
    """

    def __init__(self, llm: ChatModel) -> None:
        self._llm = llm
        self._examples = [
            (text, label.capitalize())
            for label, text in FEEDBACK_TYPE_EXAMPLES.items()
        ]
        self._labels: dict[str, str] = {}

    def route(self, feedback_text: str) -> str:
        """Classify feedback into add / remove / edit.

        Every call counts ``routing.decisions``. A call that raises
        :class:`~repro.errors.LLMError` keeps nothing, so the next call
        with the text prompts again.
        """
        with obs.span("routing.route") as sp:
            label = self._labels.get(feedback_text)
            if label is None:
                prompt = routing_prompt(feedback_text, examples=self._examples)
                completion = self._llm.complete(prompt)
                label = completion.text.strip().lower()
                if label not in (ADD, REMOVE, EDIT):
                    label = EDIT
                self._labels[feedback_text] = label
            obs.count("routing.decisions", decision=label)
            sp.set("decision", label)
            return label
