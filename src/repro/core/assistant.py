"""The Assistant: the full four-part response the tool shows users.

Per Section 3.2, the Assistant returns (a) the execution result, (b) a
reformulation of the user query, (c) a step-by-step natural-language
explanation, and (d) the SQL itself behind a 'Show Source' affordance.
The simulated annotator is only ever shown these four things.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.explain import explanation_text
from repro.core.nl2sql import Nl2SqlModel, Nl2SqlPrediction
from repro.errors import SqlError
from repro.sql import ast
from repro.sql.comparison import summarize_result
from repro.sql.engine import Database
from repro.sql.engine import QueryResult
from repro.sql.printer import print_expression


@dataclass
class AssistantResponse:
    """What the user sees after asking a question."""

    question: str
    prediction: Nl2SqlPrediction
    result: Optional[QueryResult] = None
    reformulation: str = ""
    explanation: str = ""
    error: Optional[str] = None

    @property
    def sql(self) -> str:
        """The 'Show Source' content."""
        return self.prediction.sql

    def result_text(self) -> str:
        """The execution-result panel."""
        if self.error is not None:
            return "We could not run this query."
        if self.result is None or not self.result.rows:
            return "We found nothing for your query."
        return summarize_result(self.result)

    def render(self) -> str:
        """The full chat bubble, for examples and logs."""
        parts = [
            self.result_text(),
            "",
            "Based on your question, here is the crafted query:",
            self.reformulation,
            "",
            "Here is how we got the results:",
            self.explanation,
        ]
        return "\n".join(parts)


class Assistant:
    """Answers questions: NL2SQL, execution, reformulation, explanation."""

    def __init__(self, model: Nl2SqlModel) -> None:
        self._model = model

    @property
    def model(self) -> Nl2SqlModel:
        return self._model

    def answer(self, question: str, database: Database) -> AssistantResponse:
        """Produce the four-part response for a question."""
        return self.respond(
            question, self._model.predict(question, database), database
        )

    def respond(
        self, question: str, prediction: Nl2SqlPrediction, database: Database
    ) -> AssistantResponse:
        """The four-part response for SQL that is already generated."""
        result: Optional[QueryResult] = None
        error: Optional[str] = None
        explanation = ""
        reformulation = ""
        if prediction.query is not None:
            try:
                executed = database.execute_ast(prediction.query)
                if isinstance(executed, QueryResult):
                    result = executed
            except SqlError as exc:
                error = str(exc)
            explanation = explanation_text(prediction.query)
            reformulation = _reformulate(prediction.query)
        else:
            error = "the generated SQL could not be parsed"
        return AssistantResponse(
            question=question,
            prediction=prediction,
            result=result,
            reformulation=reformulation,
            explanation=explanation,
            error=error,
        )


def _reformulate(query: ast.Select) -> str:
    """One-line restatement of what the query computes (part (b))."""
    first = query.items[0].expression
    if isinstance(first, ast.FunctionCall):
        name = first.name
        target = ""
        if first.args and isinstance(first.args[0], ast.ColumnRef):
            target = f" of {first.args[0].column}"
        table = _table_phrase(query)
        verb = {
            "COUNT": "Finds the count",
            "SUM": "Computes the total",
            "AVG": "Computes the average",
            "MIN": "Finds the minimum",
            "MAX": "Finds the maximum",
        }.get(name, f"Computes {name}")
        scope = " matching the conditions" if query.where is not None else ""
        return f"{verb}{target} of {table}{scope}."
    columns = ", ".join(
        print_expression(item.expression) for item in query.items
    )
    table = _table_phrase(query)
    scope = " matching the conditions" if query.where is not None else ""
    return f"Lists {columns} from {table}{scope}."


def _table_phrase(query: ast.Select) -> str:
    source = query.source
    while isinstance(source, ast.Join):
        source = source.left
    if isinstance(source, ast.TableRef):
        return f"the {source.name} records"
    return "the data"
