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

import threading
from collections import OrderedDict
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
        self._top_k = top_k
        self._vectorizer = TfidfVectorizer()
        if self._demos:
            self._matrix = self._vectorizer.fit_transform(
                [demo.question for demo in self._demos]
            )
        else:
            self._matrix = np.zeros((0, 0))
        self._lock = threading.Lock()
        self._memo: OrderedDict[
            tuple[str, Optional[str]], tuple[Demonstration, ...]
        ] = OrderedDict()

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
            key = (question, db_id)
            with self._lock:
                retrieved = self._memo.get(key)
                if retrieved is not None:
                    self._memo.move_to_end(key)
            if retrieved is None:
                obs.count("retrieval.misses")
                retrieved = self._rank(question, db_id)
                with self._lock:
                    self._memo[key] = retrieved
                    if len(self._memo) > RETRIEVAL_MEMO_SIZE:
                        self._memo.popitem(last=False)
            obs.count("retrieval.calls")
            obs.observe("retrieval.demos", len(retrieved))
            return list(retrieved)

    def _rank(
        self, question: str, db_id: Optional[str]
    ) -> tuple[Demonstration, ...]:
        k = self._top_k
        query_vec = self._vectorizer.transform([question])[0]
        # Retrieve a generous pool, then apply the same-database preference.
        pool = cosine_top_k(
            query_vec, self._matrix, min(len(self._demos), k * 4)
        )
        same_db = [
            self._demos[i]
            for i, _s in pool
            if db_id and self._demos[i].db_id == db_id
        ]
        others = [
            self._demos[i]
            for i, _s in pool
            if not (db_id and self._demos[i].db_id == db_id)
        ]
        return tuple((same_db + others)[:k])
