"""Schema-linking tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.linking import SchemaLinker, identifier_tokens
from repro.core.semparse import ParserConfig, SemanticParser
from repro.errors import CatalogError
from repro.nlp.stem import stem
from repro.nlp.tokenize import tokenize
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType
from tests.nlp.test_similarity_bound import _reference_similarity


class TestIdentifierTokens:
    def test_warehouse_prefixes_dropped(self):
        assert identifier_tokens("hkg_dim_segment") == ["segment"]

    def test_underscores_split(self):
        assert identifier_tokens("Song_release_year") == ["song", "release", "year"]

    def test_each_call_returns_a_fresh_list(self):
        first = identifier_tokens("Song_release_year")
        first[0] = "changed"
        first.append("added")
        assert identifier_tokens("Song_release_year") == ["song", "release", "year"]


class TestTableLinking:
    def test_plural_links_to_table(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        link = linker.link_table("segments")
        assert link is not None
        assert link.table.name == "hkg_dim_segment"

    def test_warehouse_table_linked_by_entity_word(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        assert linker.link_table("destinations").table.name == (
            "hkg_dim_destination"
        )
        assert linker.link_table("activation").table.name == (
            "hkg_fact_activation"
        )

    def test_jargon_does_not_link(self, aep_db):
        """'audiences' must NOT link — that is the closed-domain gap."""
        linker = SchemaLinker(aep_db.schema)
        assert linker.link_table("audiences") is None

    def test_guess_is_deterministic(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        first = linker.guess_table("audiences")
        second = linker.guess_table("audiences")
        assert first.table.name == second.table.name

    def test_guess_on_unknown_word_not_segment(self, aep_db):
        """The zero-shot guess for 'audiences' lands on the wrong table."""
        linker = SchemaLinker(aep_db.schema)
        assert linker.guess_table("audiences").table.name != "hkg_dim_segment"


class TestColumnLinking:
    def test_exact_column(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        link = linker.link_column(table, "status")
        assert link.column.name == "status"

    def test_nl_name_column(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        assert linker.link_column(table, "profile count").column.name == (
            "profilecount"
        )

    def test_unrelated_phrase_does_not_link(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        assert linker.link_column(table, "quarterly revenue") is None


class TestSpecialColumns:
    def test_name_column_plain(self, music_db):
        linker = SchemaLinker(music_db.schema)
        table = music_db.schema.table("singer")
        assert linker.name_column(table).name == "Name"

    def test_name_column_prefixed(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        assert linker.name_column(table).name == "segmentname"

    def test_date_column_with_hint(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_fact_activation")
        assert linker.date_column(table, hint="activated").name == (
            "activationdate"
        )

    def test_date_column_default(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        assert linker.date_column(table).name == "createdtime"

    def test_description_and_status(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        assert linker.description_column(table).name == "description"
        assert linker.status_column(table).name == "status"

    def test_no_name_column(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_fact_ingestion")
        assert linker.name_column(table) is None


def _schema(*table_names: str) -> DatabaseSchema:
    return DatabaseSchema(
        "db",
        [Table(name, [Column("id", DataType.INTEGER)]) for name in table_names],
    )


class TestTableArgmax:
    def test_ties_break_alphabetically_whatever_the_schema_order(self):
        # No table shares a token with "zebra": every score ties at 0.
        for names in (("alpha", "beta", "gamma"), ("gamma", "beta", "alpha")):
            linker = SchemaLinker(_schema(*names))
            assert linker.guess_table("zebra").table.name == "alpha"
            assert linker.link_table("zebra") is None

    def test_link_and_guess_agree_above_threshold(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        link = linker.link_table("segments")
        guess = linker.guess_table("segments")
        assert (link.table.name, link.score) == (guess.table.name, guess.score)


class TestEmptySchema:
    def test_guess_table_raises_catalog_error(self):
        with pytest.raises(CatalogError, match="no tables"):
            SchemaLinker(_schema()).guess_table("singers")

    def test_link_table_and_column_anywhere_find_nothing(self):
        linker = SchemaLinker(_schema())
        assert linker.link_table("singers") is None

    def test_semantic_parser_raises_catalog_error(self):
        parser = SemanticParser(_schema(), ParserConfig())
        with pytest.raises(CatalogError):
            parser.parse("how many singers are there")


def _reference_table(tables: list[Table], phrase: str) -> tuple[Table, float]:
    """Every table scored in key order by the reference formula; the first
    best one wins."""
    phrase_stems = {stem(token) for token in tokenize(phrase)}
    best = None
    for table in sorted(tables, key=lambda t: t.key):
        score = 0.0
        if phrase_stems:
            table_stems = set(identifier_tokens(table.name))
            containment = len(phrase_stems & table_stems) / len(phrase_stems)
            sim = _reference_similarity(phrase, table.name.replace("_", " "))
            score = max(containment, sim if sim >= 0.62 else 0.0)
        if best is None or score > best[1]:
            best = (table, score)
    return best


def _reference_column(table: Table, phrase: str) -> tuple[Column, float]:
    """Every column scored by the reference formula; the first best wins."""
    best = None
    for column in table.columns:
        score = max(
            _reference_similarity(phrase, column.name),
            _reference_similarity(phrase, column.nl_name),
        )
        if "".join(tokenize(phrase)) == column.name.replace("_", "").lower():
            score = 1.0
        if best is None or score > best[1]:
            best = (column, score)
    return best


_WORDS = (
    "release year song songs singer singers count profile status name "
    "names title age created id"
).split()
_phrases = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz _", max_size=20),
    st.text(max_size=8),
)
_identifiers = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map("_".join),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=14),
)


@st.composite
def _tables(draw) -> Table:
    """A table whose columns often tie: NL names come from a small pool."""
    names = draw(
        st.lists(_identifiers, min_size=1, max_size=8, unique_by=str.lower)
    )
    columns = [
        Column(
            name,
            DataType.TEXT,
            nl_name=draw(st.one_of(st.just(""), st.sampled_from(_WORDS))),
        )
        for name in names
    ]
    return Table("t", columns)


class TestPrunedArgmax:
    """The argmaxes skip pairs their bound rules out, and link as if every
    pair were scored: the same table or column object, the same score."""

    @given(table=_tables(), phrase=_phrases)
    # A later column whose bound is barely over the best so far, and one
    # that only the identifier check (hyphens split tokens) scores 1.0.
    @example(
        table=Table(
            "t",
            [
                Column("c1", DataType.TEXT, nl_name="release year"),
                Column("c2", DataType.TEXT, nl_name="release years"),
            ],
        ),
        phrase="release years",
    )
    @example(
        table=Table(
            "t",
            [
                Column("c1", DataType.TEXT, nl_name="release year"),
                Column("release_year", DataType.TEXT),
            ],
        ),
        phrase="release-year",
    )
    @settings(max_examples=300, deadline=None)
    def test_the_column_argmax_is_the_reference(self, table, phrase):
        linker = SchemaLinker(DatabaseSchema("db", [table]))
        link = linker._argmax_column(table, phrase)
        column, score = _reference_column(table, phrase)
        assert link.column is column and link.score == score

    @given(
        names=st.lists(_identifiers, min_size=1, max_size=8, unique_by=str.lower),
        phrase=_phrases,
    )
    # Two of three stems shared and one letter more: a similarity of 0.675,
    # over the 2/3 containment and under 0.7, so only the 0.62 cut keeps it.
    @example(names=["song_release_datex"], phrase="song release date")
    @settings(max_examples=300, deadline=None)
    def test_the_table_argmax_is_the_reference(self, names, phrase):
        schema = _schema(*names)
        link = SchemaLinker(schema)._argmax_table(phrase)
        table, score = _reference_table(schema.tables, phrase)
        assert link.table is table and link.score == score

    def test_tied_columns_keep_the_first(self):
        columns = [
            Column("c_b", DataType.TEXT, nl_name="release year"),
            Column("c_a", DataType.TEXT, nl_name="release year"),
            Column("c_c", DataType.TEXT, nl_name="release year"),
        ]
        table = Table("t", columns)
        link = SchemaLinker(DatabaseSchema("db", [table]))._argmax_column(
            table, "release years"
        )
        assert link.column is columns[0]
        assert link.score == _reference_column(table, "release years")[1]

    def test_the_bound_spares_most_pairs_their_full_score(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        table = aep_db.schema.table("hkg_dim_segment")
        obs.enable(max_spans=0)
        try:
            for phrase in ("segments", "audiences", "profile count", "status"):
                linker._argmax_table(phrase)
                linker._argmax_column(table, phrase)
            pairs = obs.get_metrics().counter_total("linking.pairs")
            scored = obs.get_metrics().counter_total("linking.scored")
        finally:
            obs.disable()
        considered = 4 * (len(aep_db.schema.tables) + 2 * len(table.columns))
        assert pairs == considered
        assert 0 < 2 * scored < pairs
