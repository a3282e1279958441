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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.assistant import Assistant, AssistantResponse
from repro.core.explain import explanation_text
from repro.core.feedback import FeedbackDemoStore
from repro.core.nl2sql import Nl2SqlModel, Nl2SqlPrediction
from repro.core.routing import FeedbackRouter
from repro.errors import ReproError, SqlError
from repro.llm.interface import ChatModel
from repro.llm.prompts import feedback_prompt
from repro.sql import ast
from repro.sql.engine import Database
from repro.sql.engine import QueryResult
from repro.sql.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.semcache.store import SemanticAnswerCache


@dataclass
class ChatTurn:
    """One message in the conversation."""

    role: str  # "user" | "assistant"
    text: str
    sql: Optional[str] = None
    highlight: Optional[str] = None


class ChatSession:
    """A stateful ask/feedback conversation against one database."""

    def __init__(
        self,
        database: Database,
        model: Nl2SqlModel,
        llm: Optional[ChatModel] = None,
        routing: bool = True,
        demo_store: Optional[FeedbackDemoStore] = None,
        semcache: "Optional[SemanticAnswerCache]" = None,
        tenant: str = "default",
    ) -> None:
        self._database = database
        self._model = model
        self._llm = llm or model.llm
        self._routing = routing
        self._semcache = semcache
        self._tenant = tenant
        self._demo_store = demo_store or FeedbackDemoStore.default()
        self._router = FeedbackRouter(self._llm)
        self._assistant = Assistant(model)
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

        With a semantic cache attached, a hit rebuilds the four-part
        response from the stored SQL locally — no model, no LLM, no
        backends. Misses run the normal pipeline and offer clean (error-
        free) answers back to the store; bypassed rounds never touch it.
        """
        self._turns.append(ChatTurn(role="user", text=question))
        lookup = None
        if self._semcache is not None:
            lookup = self._semcache.lookup(
                self._tenant, self._database.schema, question
            )
            if lookup.outcome == "hit":
                self._question = question
                response = self._respond_with(
                    lookup.sql or "", list(lookup.notes)
                )
                self._sql = response.sql
                self._semcache.log_round(
                    lookup, kind="ask", served_sql=lookup.sql
                )
                self._turns.append(
                    ChatTurn(
                        role="assistant",
                        text=response.render(),
                        sql=response.sql,
                    )
                )
                return response
        response = self._assistant.answer(question, self._database)
        self._question = question
        self._sql = response.sql
        if lookup is not None and self._semcache is not None:
            served = response.sql if response.error is None else None
            if lookup.outcome == "miss" and served:
                self._semcache.store(
                    lookup, served, list(response.prediction.notes)
                )
            self._semcache.log_round(lookup, kind="ask", served_sql=served)
        self._turns.append(
            ChatTurn(role="assistant", text=response.render(), sql=response.sql)
        )
        return response

    def give_feedback(
        self, text: str, highlight: Optional[str] = None
    ) -> AssistantResponse:
        """Send feedback on the last answer; returns the revised answer.

        ``highlight`` is a substring of the current SQL the user marked
        (the Figure 9 affordance). Raises :class:`~repro.errors.ReproError`
        when no question has been asked yet.
        """
        if self._question is None or self._sql is None:
            raise ReproError("give_feedback before any question was asked")
        self._turns.append(
            ChatTurn(role="user", text=text, highlight=highlight)
        )
        if self._semcache is not None:
            # Correction rounds are defined by *changing* the SQL: the
            # semantic cache must neither serve nor learn from them.
            lookup = self._semcache.record_feedback_bypass(
                self._tenant, self._database.schema, self._question
            )
            self._semcache.log_round(lookup, kind="feedback")

        feedback_type: Optional[str] = None
        if self._routing:
            feedback_type = self._router.route(text)
            feedback_demos = self._demo_store.for_type(feedback_type)
        else:
            feedback_demos = self._demo_store.generic()

        rag_demos = []
        if self._model.retriever is not None:
            rag_demos = self._model.retriever.retrieve(
                self._question, db_id=self._database.schema.name
            )
        prompt = feedback_prompt(
            schema=self._database.schema,
            question=self._question,
            previous_sql=self._sql,
            feedback=text,
            demos=rag_demos,
            feedback_demos=feedback_demos,
            feedback_type=feedback_type,
            highlight=highlight,
            context_key=f"chat:{len(self._turns)}",
        )
        completion = self._llm.complete(prompt)
        new_sql = completion.text.strip().rstrip(";")
        response = self._respond_with(new_sql, completion.notes)
        self._sql = new_sql
        self._turns.append(
            ChatTurn(role="assistant", text=response.render(), sql=new_sql)
        )
        return response

    def _respond_with(self, sql: str, notes: list[str]) -> AssistantResponse:
        """Build the four-part response for an already-generated SQL."""
        query: Optional[ast.Select] = None
        try:
            parsed = parse_query(sql)
            if isinstance(parsed, ast.Select):
                query = parsed
        except SqlError:
            query = None
        prediction = Nl2SqlPrediction(sql=sql, query=query, notes=list(notes))
        result: Optional[QueryResult] = None
        error: Optional[str] = None
        explanation = ""
        reformulation = ""
        if query is not None:
            try:
                executed = self._database.execute_ast(query)
                if isinstance(executed, QueryResult):
                    result = executed
            except SqlError as exc:
                error = str(exc)
            explanation = explanation_text(query)
            from repro.core.assistant import _reformulate

            reformulation = _reformulate(query)
        else:
            error = "the generated SQL could not be parsed"
        return AssistantResponse(
            question=self._question or "",
            prediction=prediction,
            result=result,
            reformulation=reformulation,
            explanation=explanation,
            error=error,
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
