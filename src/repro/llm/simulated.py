"""The simulated chat model standing in for ``gpt-3.5-turbo``.

Dispatches on the structured payload of each :class:`~repro.llm.interface.
Prompt`:

* NL2SQL prompts run the rule-based semantic parser, with in-context
  learning realized by deriving *conventions* and a *glossary* from the
  demonstrations present in the prompt (see :func:`derive_conventions`).
* Feedback prompts run the feedback editor against the previous SQL.
* Routing prompts run the lexical feedback-type classifier.
* Rewrite prompts run the deterministic paraphrase merger: it can inline
  explicit values (years after month names), but operation-level feedback
  ("do not give descriptions") is appended as a trailing clause — which the
  downstream NL2SQL pass cannot absorb. That asymmetry is the mechanistic
  reason Query Rewrite trails FISQL in the paper's Table 2.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro import obs
from repro.core.editor import FeedbackEditor
from repro.core.feedback import Feedback, Highlight
from repro.core.routing import classify_feedback
from repro.core.semparse import (
    CONVENTION_COUNT_DISTINCT,
    CONVENTION_DISTINCT_VALUES,
    CONVENTION_FIRST_IS_TOP,
    CONVENTION_NAME_ONLY,
    CONVENTION_SUM_HOW_MANY,
    ParserConfig,
    SemanticParser,
)
from repro.datasets.base import Demonstration
from repro.datasets.names import MODEL_DEFAULT_YEAR, MONTH_NAMES
from repro.errors import PromptError, SqlError
from repro.llm.interface import (
    KIND_FEEDBACK,
    KIND_NL2SQL,
    KIND_REWRITE,
    KIND_ROUTING,
    Completion,
    Prompt,
)
from repro.sql import ast
from repro.sql.parser import parse_query
from repro.sql.printer import print_query

_MONTH_ALT = "|".join(m.lower() for m in MONTH_NAMES)
_YEAR_RE = re.compile(r"\b((?:19|20)\d{2})\b")
_BARE_YEAR_RE = re.compile(r"\b(?:19|20)\d{2}\b")
_MONTH_RE = re.compile(rf"\b({_MONTH_ALT})\b")
_MONTH_YEAR_RE = re.compile(rf"\b({_MONTH_ALT})\s+(?:19|20)\d{{2}}\b")
_FIRST_N_RE = re.compile(r"\bfirst \d+\b")
_LISTING_RE = re.compile(r"^(list|show|give) the [a-z]")


def derive_conventions(demos: Sequence[Demonstration]) -> frozenset:
    """In-context learning: which phrasing conventions do the demos teach?

    The union of what each demonstration teaches, derived once per
    demonstration and kept on it (:attr:`Demonstration.conventions`).
    """
    conventions: frozenset = frozenset()
    for demo in demos:
        if demo.conventions is None:
            demo.conventions = _taught_by(demo)
        conventions |= demo.conventions
    return conventions


def _taught_by(demo: Demonstration) -> frozenset:
    """The conventions one demonstration teaches, recognized from its
    (question, SQL) surface: the same evidence an LLM would generalize
    from."""
    conventions: set[str] = set()
    question = demo.question.lower()
    try:
        query = parse_query(demo.sql)
    except SqlError:
        return frozenset()
    if not isinstance(query, ast.Select):
        return frozenset()
    if question.startswith("how many"):
        for item in query.items:
            call = item.expression
            if isinstance(call, ast.FunctionCall):
                if call.name == "COUNT" and call.distinct:
                    conventions.add(CONVENTION_COUNT_DISTINCT)
                if call.name == "SUM":
                    conventions.add(CONVENTION_SUM_HOW_MANY)
    if " values of " in question and "different" not in question and query.distinct:
        conventions.add(CONVENTION_DISTINCT_VALUES)
    if (
        _FIRST_N_RE.search(question)
        and " by " in question
        and any(o.order is ast.SortOrder.DESC for o in query.order_by)
    ):
        conventions.add(CONVENTION_FIRST_IS_TOP)
    if (
        _LISTING_RE.match(question)
        and " names" not in question
        and " name " not in question
        and len(query.items) == 1
    ):
        conventions.add(CONVENTION_NAME_ONLY)
    return frozenset(conventions)


def merge_glossaries(demos: Sequence[Demonstration]) -> dict[str, str]:
    """Union of the vocabulary the demonstrations teach."""
    glossary: dict[str, str] = {}
    for demo in demos:
        glossary.update(demo.glossary)
    return glossary


class SimulatedLLM:
    """Deterministic stand-in for the paper's GPT-3.5-turbo backend."""

    def __init__(self, default_year: int = MODEL_DEFAULT_YEAR) -> None:
        self._default_year = default_year

    def complete(self, prompt: Prompt) -> Completion:
        """Answer a prompt built by :mod:`repro.llm.prompts`."""
        if not obs.is_enabled():
            return self._dispatch(prompt)
        obs.count("llm.calls", kind=prompt.kind)
        with obs.span("llm.complete", kind=prompt.kind), obs.timer(
            "llm.latency_ms", kind=prompt.kind
        ):
            return self._dispatch(prompt)

    def complete_batch(self, prompts: Sequence[Prompt]) -> list[Completion]:
        """Answer a batch of prompts natively (one ``llm.complete_batch`` span).

        Per-prompt accounting (``llm.calls`` counters, ``llm.latency_ms``
        timers) is preserved so a batched run's metrics stay comparable to
        a sequential one.
        """
        prompts = list(prompts)
        if not obs.is_enabled():
            return [self._dispatch(prompt) for prompt in prompts]
        with obs.span("llm.complete_batch", n=len(prompts)):
            completions = []
            for prompt in prompts:
                obs.count("llm.calls", kind=prompt.kind)
                with obs.timer("llm.latency_ms", kind=prompt.kind):
                    completions.append(self._dispatch(prompt))
            return completions

    def _dispatch(self, prompt: Prompt) -> Completion:
        if prompt.kind == KIND_NL2SQL:
            return self._nl2sql(prompt)
        if prompt.kind == KIND_FEEDBACK:
            return self._feedback(prompt)
        if prompt.kind == KIND_ROUTING:
            label = classify_feedback(prompt.payload["feedback"])
            return Completion(text=label)
        if prompt.kind == KIND_REWRITE:
            return self._rewrite(prompt)
        raise PromptError(f"unknown prompt kind {prompt.kind!r}")

    # -- NL2SQL ------------------------------------------------------------------

    def _nl2sql(self, prompt: Prompt) -> Completion:
        schema = prompt.payload["schema"]
        question = prompt.payload["question"]
        demos = prompt.payload.get("demos", [])
        config = ParserConfig(
            default_year=self._default_year,
            conventions=derive_conventions(demos),
            glossary=merge_glossaries(demos),
        )
        parser = SemanticParser(schema, config)
        outcome = parser.parse(question)
        return Completion(text=print_query(outcome.query), notes=outcome.notes)

    # -- feedback incorporation ------------------------------------------------------

    def _feedback(self, prompt: Prompt) -> Completion:
        schema = prompt.payload["schema"]
        question = prompt.payload["question"]
        previous_sql = prompt.payload["previous_sql"]
        feedback_text = prompt.payload["feedback"]
        feedback_type = prompt.payload.get("feedback_type")
        highlight_text = prompt.payload.get("highlight")
        context_key = prompt.payload.get("context_key", "")

        try:
            previous = parse_query(previous_sql)
        except SqlError:
            return Completion(
                text=previous_sql, notes=["previous SQL unparseable"]
            )
        if not isinstance(previous, ast.Select):
            return Completion(
                text=previous_sql, notes=["set operations not editable"]
            )

        highlight = None
        if highlight_text:
            start = previous_sql.find(highlight_text)
            highlight = Highlight(
                text=highlight_text,
                start=max(start, 0),
                end=max(start, 0) + len(highlight_text),
            )
        feedback = Feedback(text=feedback_text, highlight=highlight)

        editor = FeedbackEditor(schema)
        operation = editor.interpret(
            feedback,
            previous,
            question,
            feedback_type=feedback_type,
            context_key=context_key,
        )
        if operation is None:
            return Completion(
                text=previous_sql,
                notes=["could not interpret the feedback; query unchanged"],
            )
        revised = editor.apply(operation, previous)
        if revised is None:
            return Completion(
                text=previous_sql,
                notes=["edit could not be applied; query unchanged"],
            )
        return Completion(
            text=print_query(revised), notes=[operation.describe()]
        )

    # -- query rewrite -----------------------------------------------------------------

    def _rewrite(self, prompt: Prompt) -> Completion:
        question = prompt.payload["question"].rstrip(" ?.!")
        feedback = prompt.payload["feedback"].strip()
        merged = self._merge(question, feedback)
        return Completion(text=merged)

    def _merge(self, question: str, feedback: str) -> str:
        """The paraphrase model's merge behaviour.

        Explicit scalar context (a year for a month mention) is inlined into
        the question. Everything else becomes a trailing clause: a faithful
        model of how question-rewriting keeps the *wording* of operation
        feedback without restructuring the question around it.
        """
        years = _YEAR_RE.findall(feedback)
        month_match = _MONTH_RE.search(question.lower())
        if years and month_match is not None:
            has_year_already = _MONTH_YEAR_RE.search(question.lower())
            if has_year_already is None:
                month_word = month_match.group(1)
                pattern = re.compile(rf"\b{month_word}\b", re.IGNORECASE)
                return (
                    pattern.sub(f"{month_word.capitalize()} {years[-1]}", question, count=1)
                    + "?"
                )
            # Replace the existing year.
            return (
                _BARE_YEAR_RE.sub(years[-1], question, count=1) + "?"
            )
        return f"{question}, and note that {feedback}?"
