"""RAG demonstration retriever.

The Assistant's NL2SQL model "utilizes a retrieval-augmented generation
approach to adaptively draw user query-relevant SQL demonstrations". Here
the store embeds demonstration questions with TF-IDF and retrieves the
top-k nearest by cosine similarity, optionally restricted to the question's
database.

Each retriever memoizes its answers per (question, database), so a
correction round retrieves nothing the Assistant already retrieved for
its question (DESIGN.md, "Each correction round and retrieval runs once
per context").
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.datasets.base import Demonstration
from repro.nlp.vectorize import TfidfVectorizer, cosine_top_k

#: How many (question, database) answers each retriever keeps (least
#: recently used first out). A full sweep asks the SPIDER retriever 1,132
#: distinct keys and the AEP one 111, so a sweep never evicts; ``serve``
#: keeps its retrievers for the life of the process, hence the cap.
RETRIEVAL_MEMO_SIZE = 2048


class DemonstrationRetriever:
    """Embeds a demonstration pool once; retrieves per query."""

    def __init__(
        self, demonstrations: Sequence[Demonstration], top_k: int = 4
    ) -> None:
        self._demos = list(demonstrations)
        vectorizer = TfidfVectorizer()
        if self._demos:
            matrix = vectorizer.fit_transform(
                [demo.question for demo in self._demos]
            )
        else:
            matrix = np.zeros((0, 0))
        # The memo holds what ranking reads, not the retriever: holding
        # the retriever would make a reference cycle, and every dropped
        # context's retrievers would wait for the cyclic collector.
        self._rank = functools.lru_cache(maxsize=RETRIEVAL_MEMO_SIZE)(
            functools.partial(_rank, self._demos, top_k, vectorizer, matrix)
        )

    def __len__(self) -> int:
        return len(self._demos)

    def retrieve(
        self, question: str, db_id: Optional[str] = None
    ) -> list[Demonstration]:
        """Top-k demonstrations for a question.

        When ``db_id`` is given, same-database demonstrations are preferred:
        they are ranked first, then the remainder fill up to ``top_k``.
        Ranked only the first time a (question, db_id) pair arrives; a
        miss counts ``retrieval.misses``, and every call gets a list of
        its own.
        """
        if not self._demos:
            return []
        with obs.span("retrieval.retrieve", db=db_id), obs.timer(
            "retrieval.latency_ms"
        ):
            retrieved = self._rank(question, db_id)
            obs.count("retrieval.calls")
            obs.observe("retrieval.demos", len(retrieved))
            return list(retrieved)


def _rank(
    demos: list[Demonstration],
    top_k: int,
    vectorizer: TfidfVectorizer,
    matrix: np.ndarray,
    question: str,
    db_id: Optional[str],
) -> tuple[Demonstration, ...]:
    """The top-k tuple for ``question``. Each retriever memoizes it, so
    this body runs, and counts, only on a miss."""
    obs.count("retrieval.misses")
    query_vec = vectorizer.transform([question])[0]
    # Retrieve a generous pool, then apply the same-database preference.
    pool = cosine_top_k(query_vec, matrix, min(len(demos), top_k * 4))
    same_db = [
        demos[i] for i, _s in pool if db_id and demos[i].db_id == db_id
    ]
    others = [
        demos[i] for i, _s in pool if not (db_id and demos[i].db_id == db_id)
    ]
    return tuple((same_db + others)[:top_k])
