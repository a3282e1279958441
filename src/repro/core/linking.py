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
from typing import Optional, Union

from repro import obs
from repro.errors import CatalogError
from repro.nlp.similarity import profile, similarity_bound, string_similarity
from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize
from repro.sql.schema import Column, DatabaseSchema, Table

#: Tokens in warehouse-style identifiers that carry no entity meaning.
_NOISE_TOKENS = frozenset({"hkg", "dim", "fact", "tbl", "t"})

#: How many table and column links the process keeps, over every schema's
#: linker (least recently used first out). A full sweep asks for 2,058
#: distinct (schema, phrase) table links and 782 (schema, table, phrase)
#: column links; ``serve`` keeps every schema for its whole life, so the
#: cap is one for the process, not one per schema.
LINK_MEMO_SIZE = 4096


def identifier_tokens(identifier: str) -> list[str]:
    """Split an identifier into meaningful, stemmed tokens (a fresh list)."""
    raw = identifier.replace("_", " ").lower()
    return [stem(token) for token in tokenize(raw) if token not in _NOISE_TOKENS]


@dataclass(frozen=True)
class TableLink:
    """A phrase resolved to a table."""

    table: Table
    score: float
    phrase: str


@dataclass(frozen=True)
class ColumnLink:
    """A phrase resolved to a column of a known table."""

    table: Table
    column: Column
    score: float
    phrase: str


class SchemaLinker:
    """Links question phrases to a database schema.

    Every link is a pure function of the table set, fixed when the linker
    is built, and the phrase, so the best table and the best column for a
    phrase are computed once and kept in one process-wide memo of
    :data:`LINK_MEMO_SIZE` links. A schema hands out one linker
    (:meth:`DatabaseSchema.linker`) until its table set changes.
    """

    #: Minimum score for a link to count as confident.
    TABLE_THRESHOLD = 0.5
    COLUMN_THRESHOLD = 0.45
    #: Least character-level similarity that counts toward a table link.
    TABLE_SIMILARITY_CUT = 0.62

    def __init__(self, schema: DatabaseSchema) -> None:
        self._schema = schema
        # The table set is fixed here; keys are unique, so this order is
        # the alphabetical tie-break of every argmax below.
        self._tables = sorted(schema.tables, key=lambda t: t.key)
        self._table_tokens = {
            table.key: set(identifier_tokens(table.name)) for table in self._tables
        }
        # Each table's name as the character-level score reads it.
        names = [table.name.replace("_", " ") for table in self._tables]
        self._table_names = [(name, profile(name)) for name in names]
        # Tables are unhashable, so a column link is keyed by its table's
        # place here. The linker holds its tables, so no other live table
        # can share an id with one of them.
        self._slots = {id(table): slot for slot, table in enumerate(self._tables)}

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
        obs.count("linking.calls")
        return _memo_link(self, None, phrase)

    def _argmax_table(self, phrase: str) -> Optional[TableLink]:
        best: Optional[TableLink] = None
        phrase_stems = {stem(token) for token in tokenize(phrase)}
        phrase_profile = profile(phrase)
        cut = self.TABLE_SIMILARITY_CUT
        scored = 0
        for table, (name, name_profile) in zip(self._tables, self._table_names):
            score = 0.0
            if phrase_stems:
                overlap = phrase_stems & self._table_tokens[table.key]
                containment = len(overlap) / len(phrase_stems)
                # Character-level similarity only counts when it is strong
                # evidence (near-identical identifiers); weak edit
                # similarity between unrelated words is noise and must not
                # inform the link. A pair whose bound is under the cut
                # needs no edit distance: its similarity counts as 0.
                sim = 0.0
                if similarity_bound(phrase_profile, name_profile) >= cut:
                    scored += 1
                    sim = string_similarity(phrase, name)
                    if sim < cut:
                        sim = 0.0
                score = max(containment, sim)
            if best is None or score > best.score:
                best = TableLink(table=table, score=score, phrase=phrase)
        obs.count("linking.pairs", len(self._tables))
        obs.count("linking.scored", scored)
        return best

    # -- columns -------------------------------------------------------------

    def link_column(self, table: Table, phrase: str) -> Optional[ColumnLink]:
        """Best column of ``table`` for a phrase, or None below threshold."""
        best = self._best_column(table, phrase)
        if best is not None and best.score >= self.COLUMN_THRESHOLD:
            return best
        return None

    def _best_column(self, table: Table, phrase: str) -> Optional[ColumnLink]:
        obs.count("linking.calls")
        slot = self._slots.get(id(table))
        if slot is None:
            # A table outside this linker's set (a caller's own, or one
            # added after the linker was built): link it, keep nothing.
            obs.count("linking.misses")
            return self._argmax_column(table, phrase)
        return _memo_link(self, slot, phrase)

    def _argmax_column(self, table: Table, phrase: str) -> Optional[ColumnLink]:
        best: Optional[ColumnLink] = None
        squashed_phrase = "".join(tokenize(phrase))
        phrase_profile = profile(phrase)
        scored = 0
        for column in table.columns:
            names = (column.name, column.nl_name)
            if squashed_phrase == column.name.replace("_", "").lower():
                score = 1.0
            elif best is not None and best.score >= max(
                similarity_bound(phrase_profile, profile(name)) for name in names
            ):
                # It cannot score over the best so far, and ties keep the
                # first column.
                continue
            else:
                scored += len(names)
                score = max(string_similarity(phrase, name) for name in names)
            if best is None or score > best.score:
                best = ColumnLink(
                    table=table, column=column, score=score, phrase=phrase
                )
        obs.count("linking.pairs", 2 * len(table.columns))
        obs.count("linking.scored", scored)
        return best

    @staticmethod
    def column_score(column: Column, phrase: str) -> float:
        """Similarity between a phrase and one column's names."""
        # Exact identifier match (ignoring separators) is decisive.
        if "".join(tokenize(phrase)) == column.name.replace("_", "").lower():
            return 1.0
        return max(
            string_similarity(phrase, column.name),
            string_similarity(phrase, column.nl_name),
        )

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


@functools.lru_cache(maxsize=LINK_MEMO_SIZE)
def _memo_link(
    linker: SchemaLinker, slot: Optional[int], phrase: str
) -> Union[TableLink, ColumnLink, None]:
    """The linker's best table for the phrase (``slot`` None), or its best
    column of the table at ``slot``. Links are frozen, so every caller can
    share one; ``lru_cache`` keeps its table consistent across threads."""
    # Runs only when the memo misses, so this counts real links.
    obs.count("linking.misses")
    if slot is None:
        return linker._argmax_table(phrase)
    return linker._argmax_column(linker._tables[slot], phrase)
