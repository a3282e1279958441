"""TF-IDF vectorizer + cosine retrieval, built on numpy.

This powers the RAG demonstration retriever: demonstrations are embedded
once; queries retrieve nearest neighbours by cosine similarity.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize


class TfidfVectorizer:
    """Fit a TF-IDF model on a corpus, then embed arbitrary texts.

    Example:
        >>> vec = TfidfVectorizer()
        >>> m = vec.fit_transform(["count the singers", "list song names"])
        >>> m.shape[0]
        2
    """

    def __init__(self, use_stemming: bool = True) -> None:
        self._use_stemming = use_stemming
        self._vocabulary: dict[str, int] = {}
        self._idf: Optional[np.ndarray] = None

    def _analyze(self, text: str) -> list[str]:
        tokens = tokenize(text)
        if self._use_stemming:
            tokens = [stem(token) for token in tokens]
        return tokens

    def fit(self, corpus: Sequence[str]) -> "TfidfVectorizer":
        """Learn vocabulary and IDF weights from ``corpus``."""
        document_frequency: dict[str, int] = {}
        analyzed = [self._analyze(text) for text in corpus]
        for tokens in analyzed:
            for token in set(tokens):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        self._vocabulary = {
            token: index for index, token in enumerate(sorted(document_frequency))
        }
        n_docs = max(len(corpus), 1)
        idf = np.zeros(len(self._vocabulary), dtype=np.float64)
        for token, index in self._vocabulary.items():
            idf[index] = math.log((1 + n_docs) / (1 + document_frequency[token])) + 1.0
        self._idf = idf
        return self

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Embed texts into L2-normalized TF-IDF rows."""
        if self._idf is None:
            raise ValueError("vectorizer is not fitted")
        matrix = np.zeros((len(texts), len(self._vocabulary)), dtype=np.float64)
        for row, text in enumerate(texts):
            counts: dict[int, int] = {}
            for token in self._analyze(text):
                index = self._vocabulary.get(token)
                if index is not None:
                    counts[index] = counts.get(index, 0) + 1
            if not counts:
                continue
            for index, count in counts.items():
                matrix[row, index] = (1 + math.log(count)) * self._idf[index]
            norm = np.linalg.norm(matrix[row])
            if norm > 0:
                matrix[row] /= norm
        return matrix

    def fit_transform(self, corpus: Sequence[str]) -> np.ndarray:
        """Fit on the corpus and return its embedding matrix."""
        self.fit(corpus)
        return self.transform(corpus)


def cosine_top_k(
    query: np.ndarray, matrix: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Indices and scores of the ``k`` nearest rows to ``query`` (cosine).

    Rows are assumed L2-normalized (as produced by the vectorizer), so the
    dot product is the cosine similarity.
    """
    if matrix.shape[0] == 0:
        return []
    scores = matrix @ query
    k = min(k, matrix.shape[0])
    top = np.argpartition(-scores, k - 1)[:k]
    ranked = top[np.argsort(-scores[top], kind="stable")]
    return list(zip(ranked.tolist(), scores[ranked].tolist()))
