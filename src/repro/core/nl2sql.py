"""The NL2SQL model wrapper: prompt assembly + (simulated) LLM call.

``Nl2SqlModel`` is the paper's base text-to-SQL system: zero-shot when no
retriever is attached (Figure 1's setup), RAG few-shot when one is (the
Assistant's in-house pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.core.retrieval import DemonstrationRetriever
from repro.llm.interface import ChatModel
from repro.llm.prompts import nl2sql_prompt
from repro.llm.simulated import SimulatedLLM
from repro.sql import ast
from repro.sql.engine import Database
from repro.sql.parser import parse_select


@dataclass
class Nl2SqlPrediction:
    """One NL2SQL prediction.

    Attributes:
        sql: The generated SQL text.
        query: The parsed AST (None when the text does not parse).
        notes: Model-side notes (assumptions it made).
        demos_used: How many demonstrations were in the prompt.
    """

    sql: str
    query: Optional[ast.Select] = None
    notes: list[str] = field(default_factory=list)
    demos_used: int = 0

    @property
    def parse_ok(self) -> bool:
        return self.query is not None


class Nl2SqlModel:
    """Base NL2SQL model: prompt → (simulated) LLM → SQL."""

    def __init__(
        self,
        llm: Optional[ChatModel] = None,
        retriever: Optional[DemonstrationRetriever] = None,
    ) -> None:
        self._llm = llm or SimulatedLLM()
        self._retriever = retriever

    @property
    def llm(self) -> ChatModel:
        return self._llm

    @property
    def retriever(self) -> Optional[DemonstrationRetriever]:
        return self._retriever

    def predict(self, question: str, database: Database) -> Nl2SqlPrediction:
        """Generate SQL for a question against a database."""
        with obs.span("nl2sql.predict", db=database.schema.name) as sp, obs.timer(
            "nl2sql.latency_ms"
        ):
            prediction = self._predict(question, database)
            obs.count("nl2sql.predictions")
            if not prediction.parse_ok:
                obs.count("nl2sql.parse_failures")
            sp.set("parse_ok", prediction.parse_ok)
            sp.set("demos_used", prediction.demos_used)
            return prediction

    def _predict(self, question: str, database: Database) -> Nl2SqlPrediction:
        demos = []
        if self._retriever is not None:
            demos = self._retriever.retrieve(
                question, db_id=database.schema.name
            )
        prompt = nl2sql_prompt(database.schema, question, demos=demos)
        completion = self._llm.complete(prompt)
        sql = completion.text.strip().rstrip(";")
        return Nl2SqlPrediction(
            sql=sql,
            query=parse_select(sql),
            notes=list(completion.notes),
            demos_used=len(demos),
        )
