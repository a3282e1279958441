"""Schema linking: mapping question phrases to tables and columns.

The linker sees exactly what a prompt-driven LLM sees: the schema's
identifiers (tokenized, e.g. ``hkg_dim_segment`` → "hkg dim segment") and
the human-readable column names. It does *not* see the synonym lists on
schema objects — those model what users say, and reach the model only
through the glossary entries of retrieved demonstrations (in-context
learning).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.errors import CatalogError
from repro.nlp.similarity import string_similarity
from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize
from repro.sql.schema import Column, DatabaseSchema, Table

#: Tokens in warehouse-style identifiers that carry no entity meaning.
_NOISE_TOKENS = frozenset({"hkg", "dim", "fact", "tbl", "t"})


#: How many distinct identifiers :func:`identifier_tokens` keeps split. A
#: full sweep splits 83 (table names and date columns).
IDENTIFIER_MEMO_SIZE = 1024


def identifier_tokens(identifier: str) -> list[str]:
    """Split an identifier into meaningful, stemmed tokens (a fresh list)."""
    return list(_identifier_tokens(identifier))


@functools.lru_cache(maxsize=IDENTIFIER_MEMO_SIZE)
def _identifier_tokens(identifier: str) -> tuple[str, ...]:
    raw = identifier.replace("_", " ").lower()
    return tuple(
        stem(token) for token in tokenize(raw) if token not in _NOISE_TOKENS
    )


@dataclass
class TableLink:
    """A phrase resolved to a table."""

    table: Table
    score: float
    phrase: str


@dataclass
class ColumnLink:
    """A phrase resolved to a column of a known table."""

    table: Table
    column: Column
    score: float
    phrase: str


class SchemaLinker:
    """Links question phrases to a database schema."""

    #: Minimum score for a link to count as confident.
    TABLE_THRESHOLD = 0.5
    COLUMN_THRESHOLD = 0.45

    def __init__(self, schema: DatabaseSchema) -> None:
        self._schema = schema
        # The table set is fixed here; keys are unique, so this order is
        # the alphabetical tie-break of every argmax below.
        self._tables = sorted(schema.tables, key=lambda t: t.key)
        self._table_tokens = {
            table.key: set(identifier_tokens(table.name)) for table in self._tables
        }

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    # -- tables -------------------------------------------------------------

    def link_table(self, phrase: str) -> Optional[TableLink]:
        """Best table for a phrase, or None below threshold."""
        best = self._best_table(phrase)
        if best is not None and best.score >= self.TABLE_THRESHOLD:
            return best
        return None

    def guess_table(self, phrase: str) -> TableLink:
        """Best table even when no confident link exists (the model's guess).

        Mirrors an LLM that must output *something*: the argmax table with
        alphabetical tie-breaking, however low the score.

        Raises:
            CatalogError: when the schema has no tables to guess from.
        """
        best = self._best_table(phrase)
        if best is None:
            raise CatalogError(
                f"database {self._schema.name!r} has no tables to link to"
            )
        return best

    def _best_table(self, phrase: str) -> Optional[TableLink]:
        best: Optional[TableLink] = None
        phrase_stems = {stem(token) for token in tokenize(phrase)}
        for table in self._tables:
            score = self._table_score(table, phrase, phrase_stems)
            if best is None or score > best.score:
                best = TableLink(table=table, score=score, phrase=phrase)
        return best

    def _table_score(
        self, table: Table, phrase: str, phrase_stems: set[str]
    ) -> float:
        table_stems = self._table_tokens[table.key]
        if not phrase_stems:
            return 0.0
        overlap = phrase_stems & table_stems
        containment = len(overlap) / len(phrase_stems)
        # Character-level similarity only counts when it is strong evidence
        # (near-identical identifiers); weak edit similarity between
        # unrelated words is noise and must not inform the link.
        sim = string_similarity(phrase, table.name.replace("_", " "))
        if sim < 0.62:
            sim = 0.0
        return max(containment, sim)

    # -- columns -------------------------------------------------------------

    def link_column(self, table: Table, phrase: str) -> Optional[ColumnLink]:
        """Best column of ``table`` for a phrase, or None below threshold."""
        best = self._best_column(table, phrase)
        if best is not None and best.score >= self.COLUMN_THRESHOLD:
            return best
        return None

    def _best_column(self, table: Table, phrase: str) -> Optional[ColumnLink]:
        best: Optional[ColumnLink] = None
        for column in table.columns:
            score = self.column_score(column, phrase)
            if best is None or score > best.score:
                best = ColumnLink(
                    table=table, column=column, score=score, phrase=phrase
                )
        return best

    @staticmethod
    def column_score(column: Column, phrase: str) -> float:
        """Similarity between a phrase and one column's names."""
        candidates = [column.name, column.nl_name]
        score = max(string_similarity(phrase, cand) for cand in candidates)
        # Exact identifier match (ignoring separators) is decisive.
        squashed_phrase = "".join(tokenize(phrase))
        squashed_column = column.name.replace("_", "").lower()
        if squashed_phrase == squashed_column:
            return 1.0
        return score

    def name_column(self, table: Table) -> Optional[Column]:
        """The table's display-name column (``name``, ``*name``, or a
        common display column such as ``title``)."""
        for column in table.columns:
            if column.key == "name":
                return column
        for column in table.columns:
            if column.key.endswith("name") and not column.primary_key:
                return column
        for column in table.columns:
            if column.key in ("title", "label", "headline"):
                return column
        return None

    def date_column(self, table: Table, hint: str = "") -> Optional[Column]:
        """The table's best event-date column, optionally biased by a hint.

        The hint is the verb near the date phrase ("created", "ingested").
        """
        from repro.sql.types import DataType

        date_columns = [c for c in table.columns if c.dtype is DataType.DATE]
        if not date_columns:
            return None
        if hint:
            hint_stem = stem(hint)
            for column in date_columns:
                if hint_stem in identifier_tokens(column.name):
                    return column
        return date_columns[0]

    def description_column(self, table: Table) -> Optional[Column]:
        for column in table.columns:
            if "description" in column.key:
                return column
        return None

    def status_column(self, table: Table) -> Optional[Column]:
        for column in table.columns:
            if "status" in column.key:
                return column
        return None

    def column_anywhere(self, phrase: str) -> Optional[ColumnLink]:
        """Best column across all tables (used when no table is anchored)."""
        best: Optional[ColumnLink] = None
        for table in self._tables:
            link = self._best_column(table, phrase)
            if link is not None and (best is None or link.score > best.score):
                best = link
        if best is not None and best.score >= self.COLUMN_THRESHOLD:
            return best
        return None
