"""A semantic-cache wrapper over :class:`repro.core.nl2sql.Nl2SqlModel`.

This is the batch-run integration point: it sits *above* the entire
dispatch stack (CachingChatModel, the router, the backends). A hit here
re-parses the stored SQL locally and returns a full
:class:`Nl2SqlPrediction` without calling the inner model at all — so
``nl2sql.predictions`` and every ``llm.*`` counter stay flat, which is
exactly how the smoke tests prove the bypass-the-backends claim.

Only clean answers are offered back to the store: parse failures and
:class:`~repro.errors.LLMError` outcomes are never cached (a degraded
round must not become a sticky wrong answer).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.nl2sql import Nl2SqlModel, Nl2SqlPrediction
from repro.core.retrieval import DemonstrationRetriever
from repro.errors import SqlError
from repro.llm.interface import ChatModel
from repro.semcache.store import SemanticAnswerCache
from repro.sql import ast
from repro.sql.engine import Database
from repro.sql.parser import parse_query


def prediction_from_sql(sql: str, notes: Sequence[str]) -> Nl2SqlPrediction:
    """Rebuild a prediction from stored SQL by re-parsing it locally."""
    query: Optional[ast.Select] = None
    try:
        parsed = parse_query(sql)
        if isinstance(parsed, ast.Select):
            query = parsed
    except SqlError:
        query = None
    return Nl2SqlPrediction(sql=sql, query=query, notes=list(notes))


class SemanticCachingNl2SqlModel:
    """Duck-typed ``Nl2SqlModel`` that consults the semantic store first."""

    def __init__(
        self,
        inner: Nl2SqlModel,
        cache: SemanticAnswerCache,
        tenant: str = "run",
    ) -> None:
        self._inner = inner
        self._cache = cache
        self._tenant = tenant

    @property
    def inner(self) -> Nl2SqlModel:
        return self._inner

    @property
    def llm(self) -> ChatModel:
        return self._inner.llm

    @property
    def retriever(self) -> Optional[DemonstrationRetriever]:
        return self._inner.retriever

    def predict(self, question: str, database: Database) -> Nl2SqlPrediction:
        lookup = self._cache.lookup(self._tenant, database.schema, question)
        if lookup.outcome == "hit":
            prediction = prediction_from_sql(lookup.sql or "", lookup.notes)
            self._cache.log_round(lookup, kind="ask", served_sql=lookup.sql)
            return prediction
        prediction = self._inner.predict(question, database)
        if lookup.outcome == "miss" and prediction.parse_ok:
            self._cache.store(lookup, prediction.sql, list(prediction.notes))
        self._cache.log_round(
            lookup, kind="ask", served_sql=prediction.sql or None
        )
        return prediction
