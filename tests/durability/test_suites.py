"""Suite persistence: byte-stable round trips, staleness, corruption."""

import pytest

from repro.datasets.aep import generate_aep_suite
from repro.datasets.base import demonstrations_from_examples
from repro.datasets.spider import generate_spider_suite
from repro.durability.suites import (
    SUITE_SCHEMA_VERSION,
    load_suites,
    save_suites,
    suite_path,
)
from repro.durability.atomic import write_checksummed_json


@pytest.fixture(scope="module")
def tiny_env():
    spider = generate_spider_suite(n_databases=3, n_dev=8, n_train=6)
    aep_benchmark, aep_demos = generate_aep_suite(n_questions=6)
    return spider, aep_benchmark, aep_demos


class TestRoundTrip:
    def test_examples_and_demos_survive(self, tmp_path, tiny_env):
        spider, aep_benchmark, aep_demos = tiny_env
        save_suites(tmp_path, "tiny", 7, spider, aep_benchmark, aep_demos)
        loaded = load_suites(tmp_path, "tiny", 7)
        assert loaded is not None
        spider2, aep2, demos2 = loaded
        assert [e.to_dict() for e in spider2.benchmark.examples] == [
            e.to_dict() for e in spider.benchmark.examples
        ]
        assert [e.to_dict() for e in spider2.train_examples] == [
            e.to_dict() for e in spider.train_examples
        ]
        assert [e.to_dict() for e in aep2.examples] == [
            e.to_dict() for e in aep_benchmark.examples
        ]
        assert [d.question for d in demos2] == [
            d.question for d in aep_demos
        ]
        assert demos2[0].glossary == aep_demos[0].glossary

    def test_spider_demonstrations_are_rebuilt_on_load(self, tmp_path, tiny_env):
        spider, aep_benchmark, aep_demos = tiny_env
        save_suites(tmp_path, "tiny", 7, spider, aep_benchmark, aep_demos)
        spider2, _, _ = load_suites(tmp_path, "tiny", 7)
        assert spider2.demos == demonstrations_from_examples(spider.train_examples)
        assert spider2.demos == spider.demos
        assert not any(a is b for a, b in zip(spider2.demos, spider.demos))

    def test_databases_survive_with_rows(self, tmp_path, tiny_env):
        spider, aep_benchmark, aep_demos = tiny_env
        save_suites(tmp_path, "tiny", 7, spider, aep_benchmark, aep_demos)
        spider2, _, _ = load_suites(tmp_path, "tiny", 7)
        assert sorted(spider2.benchmark.databases) == sorted(
            spider.benchmark.databases
        )
        for db_id, original in spider.benchmark.databases.items():
            restored = spider2.benchmark.databases[db_id]
            for table in original.schema.tables:
                query = f"SELECT * FROM {table.name}"
                assert (
                    restored.execute(query).rows
                    == original.execute(query).rows
                )

    def test_repeated_saves_are_byte_identical(self, tmp_path, tiny_env):
        spider, aep_benchmark, aep_demos = tiny_env
        path = save_suites(
            tmp_path, "tiny", 7, spider, aep_benchmark, aep_demos
        )
        first = path.read_bytes()
        save_suites(tmp_path, "tiny", 7, spider, aep_benchmark, aep_demos)
        assert path.read_bytes() == first


class TestMisses:
    def test_absent_file(self, tmp_path):
        assert load_suites(tmp_path, "tiny", 7) is None

    def test_scale_seed_mismatch_quarantines(self, tmp_path, tiny_env):
        spider, aep_benchmark, aep_demos = tiny_env
        save_suites(tmp_path, "tiny", 7, spider, aep_benchmark, aep_demos)
        # Same bytes renamed to another (scale, seed) slot must not load.
        target = suite_path(tmp_path, "other", 8)
        suite_path(tmp_path, "tiny", 7).rename(target)
        assert load_suites(tmp_path, "other", 8) is None
        assert not target.exists()  # quarantined

    def test_stale_schema_version_quarantines(self, tmp_path):
        path = suite_path(tmp_path, "tiny", 7)
        write_checksummed_json(
            path,
            {
                "version": SUITE_SCHEMA_VERSION + 1,
                "scale": "tiny",
                "seed": 7,
            },
            "suite",
        )
        assert load_suites(tmp_path, "tiny", 7) is None
        assert not path.exists()

    def test_corrupt_file_quarantines(self, tmp_path):
        path = suite_path(tmp_path, "tiny", 7)
        path.write_text("torn")
        assert load_suites(tmp_path, "tiny", 7) is None
        assert (tmp_path / (path.name + ".corrupt")).exists()

    def test_truncated_payload_quarantines(self, tmp_path):
        path = suite_path(tmp_path, "tiny", 7)
        # Valid envelope, valid version/scale/seed, missing suite bodies.
        write_checksummed_json(
            path,
            {"version": SUITE_SCHEMA_VERSION, "scale": "tiny", "seed": 7},
            "suite",
        )
        assert load_suites(tmp_path, "tiny", 7) is None
        assert not path.exists()
