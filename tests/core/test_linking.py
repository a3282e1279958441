"""Schema-linking tests."""

import pytest

from repro.core.linking import SchemaLinker, identifier_tokens
from repro.core.semparse import ParserConfig, SemanticParser
from repro.errors import CatalogError
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


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

    def test_column_anywhere(self, aep_db):
        linker = SchemaLinker(aep_db.schema)
        link = linker.column_anywhere("rows ingested")
        assert link.column.name == "rowsingested"
        assert link.table.name == "hkg_fact_ingestion"


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
        assert linker.column_anywhere("name") is None

    def test_semantic_parser_raises_catalog_error(self):
        parser = SemanticParser(_schema(), ParserConfig())
        with pytest.raises(CatalogError):
            parser.parse("how many singers are there")
