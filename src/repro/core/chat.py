"""Conversational session state: the AEP Assistant chat experience.

The paper's tool is a chat: the user asks a question, reads the four-part
response, and may reply with feedback (optionally highlighting a SQL span),
repeatedly. :class:`ChatSession` packages that loop behind two methods —
``ask`` and ``give_feedback`` — maintaining the conversation state the
Figure 6 prompt needs (the current question and the previous SQL).

Example::

    session = ChatSession(database, Nl2SqlModel())
    session.ask("How many segments were created in January?")
    session.give_feedback("we are in 2024")
    print(session.transcript())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.assistant import Assistant, AssistantResponse
from repro.core.nl2sql import Nl2SqlModel, Nl2SqlPrediction
from repro.core.session import FisqlPipeline
from repro.errors import ReproError
from repro.llm.interface import ChatModel
from repro.sql.engine import Database

# ``parse_query`` stays bound here because fisqlbench's layer-timer
# self-test rebinds this module's copy (benchmarks/fisqlbench/test_layers.py).
from repro.sql.parser import parse_query, parse_select  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.semcache.model import SemanticCachingNl2SqlModel
    from repro.semcache.store import SemanticAnswerCache


@dataclass
class ChatTurn:
    """One message in the conversation."""

    role: str  # "user" | "assistant"
    text: str
    sql: Optional[str] = None
    highlight: Optional[str] = None


class ChatSession:
    """A stateful ask/feedback conversation against one database.

    Asks go through the :class:`Assistant`, feedback through
    :meth:`FisqlPipeline.revise` (the sweep's own round). With a semantic
    cache attached, the Assistant's model is wrapped, labelled by
    ``tenant``: a hit answers from the stored SQL with no model call, a
    miss that parses is stored, and feedback rounds bypass the cache.
    """

    def __init__(
        self,
        database: Database,
        model: Nl2SqlModel,
        llm: Optional[ChatModel] = None,
        routing: bool = True,
        semcache: "Optional[SemanticAnswerCache]" = None,
        tenant: str = "default",
    ) -> None:
        self._database = database
        self._pipeline = FisqlPipeline(model, llm=llm, routing=routing)
        self._cached: "Optional[SemanticCachingNl2SqlModel]" = None
        if semcache is not None:
            from repro.semcache.model import SemanticCachingNl2SqlModel

            self._cached = SemanticCachingNl2SqlModel(
                model, semcache, tenant=tenant
            )
        self._assistant = Assistant(self._cached or model)
        self._turns: list[ChatTurn] = []
        self._question: Optional[str] = None
        self._sql: Optional[str] = None

    @property
    def turns(self) -> list[ChatTurn]:
        return list(self._turns)

    @property
    def current_sql(self) -> Optional[str]:
        """The latest generated SQL (the 'Show Source' content)."""
        return self._sql

    # -- interaction ------------------------------------------------------------

    def ask(self, question: str) -> AssistantResponse:
        """Ask a fresh question (starts a new correction context).

        The user turn and the reply are recorded together once the model
        has answered, so a failed call leaves the conversation unchanged.
        """
        response = self._assistant.answer(question, self._database)
        self._question = question
        self._sql = response.sql
        self._record(ChatTurn(role="user", text=question), response)
        return response

    def give_feedback(
        self, text: str, highlight: Optional[str] = None
    ) -> AssistantResponse:
        """Send feedback on the last answer; returns the revised answer.

        ``highlight`` is a substring of the current SQL the user marked
        (the Figure 9 affordance). Raises :class:`~repro.errors.ReproError`
        when no question has been asked yet, and the round's
        :class:`~repro.errors.LLMError` when the revision call fails.
        """
        if self._question is None or self._sql is None:
            raise ReproError("give_feedback before any question was asked")
        if self._cached is not None:
            self._cached.record_feedback(self._question, self._database)
        revision = self._pipeline.revise(
            self._database,
            self._question,
            self._sql,
            text,
            highlight=highlight,
            # Counts the user turn this round adds.
            context_key=f"chat:{len(self._turns) + 1}",
        )
        if revision.error is not None:
            raise revision.error
        prediction = Nl2SqlPrediction(
            sql=revision.sql,
            query=parse_select(revision.sql),
            notes=revision.notes,
        )
        response = self._assistant.respond(
            self._question, prediction, self._database
        )
        self._sql = revision.sql
        self._record(
            ChatTurn(role="user", text=text, highlight=highlight), response
        )
        return response

    def _record(self, turn: ChatTurn, response: AssistantResponse) -> None:
        self._turns.append(turn)
        self._turns.append(
            ChatTurn(role="assistant", text=response.render(), sql=response.sql)
        )

    # -- persistence -------------------------------------------------------------

    def state(self) -> dict:
        """The conversation state as plain JSON-serializable data.

        Everything :meth:`restore_state` needs to resume the session:
        the transcript turns plus the active question/SQL pair. Feedback
        context keys are derived from the turn count, so a restored
        session continues the same deterministic key sequence.
        """
        return {
            "turns": [
                {
                    "role": turn.role,
                    "text": turn.text,
                    "sql": turn.sql,
                    "highlight": turn.highlight,
                }
                for turn in self._turns
            ],
            "question": self._question,
            "sql": self._sql,
        }

    def restore_state(self, state: dict) -> None:
        """Resume a conversation from a :meth:`state` snapshot."""
        self._turns = [
            ChatTurn(
                role=turn.get("role", "user"),
                text=turn.get("text", ""),
                sql=turn.get("sql"),
                highlight=turn.get("highlight"),
            )
            for turn in state.get("turns", [])
        ]
        self._question = state.get("question")
        self._sql = state.get("sql")

    # -- rendering ----------------------------------------------------------------

    def transcript(self) -> str:
        """The whole conversation as readable text."""
        blocks = []
        for turn in self._turns:
            speaker = "User" if turn.role == "user" else "Assistant"
            block = f"{speaker}: {turn.text}"
            if turn.highlight:
                block += f"\n  [highlighted: {turn.highlight}]"
            blocks.append(block)
        return "\n\n".join(blocks)
