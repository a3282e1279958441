"""Dataset generator tests: shape, determinism, gold validity, traps."""

from collections import Counter

import pytest

from repro.datasets.aep import AEP_DB_ID, build_aep_database, generate_aep_suite
from repro.datasets.base import Example, demonstrations_from_examples
from repro.datasets.spider import generate_spider_suite
from repro.datasets.traps import ALL_TRAPS, trap_for, traps_for_dataset
from repro.sql.comparison import query_is_ordered, results_match
from repro.sql.parser import parse_query


class TestSpiderShape:
    def test_dev_split_size(self, small_suite):
        assert len(small_suite.dev_examples) == 90

    def test_database_count(self, small_suite):
        assert len(small_suite.benchmark.databases) == 16

    def test_tables_per_database_in_paper_range(self, small_suite):
        for gdb in small_suite.generated.values():
            assert 5 <= len(gdb.tables) <= 20

    def test_columns_per_table_in_paper_range(self, small_suite):
        for gdb in small_suite.generated.values():
            for meta in gdb.tables:
                assert 5 <= len(meta.table.columns) <= 10

    def test_tables_have_rows(self, small_suite):
        for db_id, gdb in small_suite.generated.items():
            for meta in gdb.tables:
                assert gdb.database.row_count(meta.table.name) >= 18

    def test_every_example_targets_existing_db(self, small_suite):
        for example in small_suite.dev_examples:
            assert example.db_id in small_suite.benchmark.databases

    def test_hardness_buckets(self, small_suite):
        buckets = {e.hardness for e in small_suite.dev_examples}
        assert buckets <= {"easy", "medium", "hard", "extra"}
        assert "easy" in buckets and "medium" in buckets


class TestGoldValidity:
    def test_all_dev_gold_queries_execute(self, small_suite):
        for example in small_suite.dev_examples:
            db = small_suite.benchmark.database(example.db_id)
            db.query(example.gold_sql)  # must not raise

    def test_all_train_gold_queries_execute(self, small_suite):
        for example in small_suite.train_examples:
            db = small_suite.benchmark.database(example.db_id)
            db.query(example.gold_sql)

    def test_trap_foils_execute_and_differ(self, small_suite):
        for example in small_suite.benchmark.trapped_examples():
            foil = example.trap_meta.get("foil_sql")
            if not foil:
                continue
            db = small_suite.benchmark.database(example.db_id)
            gold_ast = parse_query(example.gold_sql)
            gold = db.execute_ast(gold_ast)
            foil_result = db.query(foil)
            assert not results_match(
                gold, foil_result, ordered=query_is_ordered(gold_ast)
            ), example.example_id


def _suite_fingerprint(suite):
    return [
        (e.example_id, e.question, e.gold_sql, e.trap_kind)
        for e in suite.dev_examples
    ]


class TestDeterminism:
    def test_same_seed_same_suite(self):
        a = generate_spider_suite(n_databases=6, n_dev=30, n_train=10, seed=7)
        b = generate_spider_suite(n_databases=6, n_dev=30, n_train=10, seed=7)
        assert _suite_fingerprint(a) == _suite_fingerprint(b)

    def test_different_seed_different_suite(self):
        a = generate_spider_suite(n_databases=6, n_dev=30, n_train=10, seed=7)
        b = generate_spider_suite(n_databases=6, n_dev=30, n_train=10, seed=8)
        assert _suite_fingerprint(a) != _suite_fingerprint(b)

    def test_data_rows_deterministic(self):
        a = generate_spider_suite(n_databases=3, n_dev=10, n_train=5, seed=3)
        b = generate_spider_suite(n_databases=3, n_dev=10, n_train=5, seed=3)
        db_id = sorted(a.benchmark.databases)[0]
        table = a.generated[db_id].tables[0].table.name
        assert (
            a.benchmark.databases[db_id].data(table).rows
            == b.benchmark.databases[db_id].data(table).rows
        )


class TestTrapMix:
    def test_dev_has_trapped_and_clean(self, small_suite):
        kinds = Counter(e.trap_kind for e in small_suite.dev_examples)
        assert kinds[None] > 0
        assert sum(v for k, v in kinds.items() if k) > 0

    def test_trap_rate_in_band(self, small_suite):
        trapped = len(small_suite.benchmark.trapped_examples())
        rate = trapped / len(small_suite.dev_examples)
        assert 0.2 <= rate <= 0.5

    def test_train_traps_are_conventions_only(self, small_suite):
        allowed = {
            None,
            "extra_description",
            "count_distinct",
            "missing_distinct",
            "order_direction",
            "wrong_aggregate",
        }
        assert {e.trap_kind for e in small_suite.train_examples} <= allowed

    def test_trap_meta_for_default_year(self, small_suite):
        examples = [
            e for e in small_suite.dev_examples if e.trap_kind == "default_year"
        ]
        for example in examples:
            assert example.trap_meta["intended_year"] == 2024
            assert example.trap_meta["assumed_year"] == 2023


class TestTrapRegistry:
    def test_lookup(self):
        assert trap_for("default_year").feedback_type == "edit"

    def test_dataset_filters(self):
        spider_traps = {t.name for t in traps_for_dataset("spider")}
        aep_traps = {t.name for t in traps_for_dataset("aep")}
        assert "ambiguous_column" in spider_traps
        assert "jargon_join" in aep_traps
        assert "jargon_join" not in spider_traps

    def test_all_have_descriptions(self):
        for trap in ALL_TRAPS.values():
            assert trap.description
            assert trap.feedback_type in ("add", "remove", "edit")


class TestAep:
    def test_database_builds(self, aep_db):
        assert aep_db.schema.has_table("hkg_dim_segment")
        assert aep_db.row_count("hkg_dim_segment") == 20
        assert aep_db.row_count("hkg_fact_activation") > 0

    def test_traffic_size(self, aep_suite):
        benchmark, _demos = aep_suite
        assert len(benchmark.examples) == 70

    def test_gold_executes(self, aep_suite):
        benchmark, _demos = aep_suite
        for example in benchmark.examples:
            benchmark.database(example.db_id).query(example.gold_sql)

    def test_jargon_questions_present(self, aep_suite):
        benchmark, _demos = aep_suite
        questions = " ".join(e.question.lower() for e in benchmark.examples)
        assert "audiences" in questions
        assert "activated" in questions

    def test_demo_pool_has_glossary(self, aep_suite):
        _benchmark, demos = aep_suite
        merged = {}
        for demo in demos:
            merged.update(demo.glossary)
        assert merged.get("audiences") == "hkg_dim_segment"
        # 'enabled' is deliberately NOT covered (stays an Assistant error).
        assert "enabled" not in merged

    def test_determinism(self):
        a, _d1 = generate_aep_suite(n_questions=40)
        b, _d2 = generate_aep_suite(n_questions=40)
        assert [e.question for e in a.examples] == [e.question for e in b.examples]


class TestContainers:
    def test_example_serialization_roundtrip(self):
        example = Example(
            example_id="x",
            db_id="d",
            question="q?",
            gold_sql="SELECT 1",
            hardness="easy",
            trap_kind="default_year",
            trap_meta={"month": 3},
        )
        assert Example.from_dict(example.to_dict()) == example

    def test_benchmark_helpers(self, small_suite):
        benchmark = small_suite.benchmark
        assert len(benchmark) == len(benchmark.examples)
        with pytest.raises(Exception):
            benchmark.database("missing")

    def test_demonstrations_from_examples(self, small_suite):
        demos = demonstrations_from_examples(small_suite.train_examples[:5])
        assert len(demos) == 5
        assert demos[0].question == small_suite.train_examples[0].question
        assert "Question:" in demos[0].render()
