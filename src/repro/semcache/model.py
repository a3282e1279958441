"""A semantic-cache wrapper over :class:`repro.core.nl2sql.Nl2SqlModel`.

This is the one integration point: ``serve`` wraps each chat session's
model (``ChatSession``), labelled by the session's tenant. A batch
``run`` never sees the cache, so a paraphrase can never carry one
question's answer into another question's score.

The wrapper sits *above* the entire dispatch stack (CachingChatModel,
the router, the backends). A hit re-parses the stored SQL locally and
returns a full :class:`Nl2SqlPrediction` without calling the inner model
at all — so ``nl2sql.predictions`` and every ``llm.*`` counter stay
flat, which is exactly how the smoke tests prove the bypass-the-backends
claim.

Only clean answers are offered back to the store: parse failures and
:class:`~repro.errors.LLMError` outcomes are never cached (a degraded
round must not become a sticky wrong answer).
"""

from __future__ import annotations

from repro.core.nl2sql import Nl2SqlModel, Nl2SqlPrediction
from repro.semcache.store import SemanticAnswerCache
from repro.sql.engine import Database
from repro.sql.parser import parse_select


class SemanticCachingNl2SqlModel:
    """Duck-typed ``Nl2SqlModel`` that consults the semantic store first."""

    def __init__(
        self, inner: Nl2SqlModel, cache: SemanticAnswerCache, tenant: str
    ) -> None:
        self._inner = inner
        self._cache = cache
        self._tenant = tenant

    def predict(self, question: str, database: Database) -> Nl2SqlPrediction:
        lookup = self._cache.lookup(self._tenant, database.schema, question)
        if lookup.outcome == "hit":
            sql = lookup.sql or ""
            self._cache.log_round(lookup, kind="ask")
            return Nl2SqlPrediction(
                sql=sql, query=parse_select(sql), notes=list(lookup.notes)
            )
        prediction = self._inner.predict(question, database)
        if lookup.outcome == "miss" and prediction.parse_ok:
            self._cache.store(lookup, prediction.sql, list(prediction.notes))
        self._cache.log_round(lookup, kind="ask")
        return prediction

    def record_feedback(self, question: str, database: Database) -> None:
        """Log a feedback round on ``question``: it changes the SQL, so the
        cache neither serves nor learns from it."""
        lookup = self._cache.record_feedback_bypass(
            self._tenant, database.schema, question
        )
        self._cache.log_round(lookup, kind="feedback")
