"""Chat-model interface for the simulated LLM.

The paper's backend drives everything through prompts to ``gpt-3.5-turbo``.
We preserve that architecture: callers build a :class:`Prompt` (which
renders to the paper's prompt text — Figures 1, 5 and 6) and pass it to a
:class:`ChatModel`. Offline, the only implementation is
:class:`repro.llm.simulated.SimulatedLLM`, which dispatches on the prompt's
structured payload; a real API-backed model could be dropped in by
implementing the same protocol against ``prompt.text``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

#: Prompt kinds the backend issues.
KIND_NL2SQL = "nl2sql"
KIND_FEEDBACK = "nl2sql_feedback"
KIND_ROUTING = "feedback_routing"
KIND_REWRITE = "query_rewrite"


@dataclass
class Prompt:
    """A prompt: rendered text plus the structured fields it was built from.

    Attributes:
        kind: One of the ``KIND_*`` constants.
        text: The full rendered prompt (what would be sent to an API model).
        payload: The structured fields (schema object, question, demos, ...)
            that the simulated model dispatches on.
    """

    kind: str
    text: str
    payload: dict = field(default_factory=dict)


@dataclass
class Completion:
    """A model response: the text plus optional structured notes."""

    text: str
    notes: list[str] = field(default_factory=list)


class ChatModel(Protocol):
    """Anything that can answer a prompt."""

    def complete(self, prompt: Prompt) -> Completion:
        """Produce a completion for the prompt."""
        ...  # pragma: no cover
