"""Schema fingerprints and the semantic answer store's guardrails."""

import pytest

from repro.durability.atomic import read_checksummed_json
from repro.semcache.fingerprint import (
    DISPLAY_DIGITS,
    display_fingerprint,
    schema_fingerprint,
)
from repro.semcache.store import (
    LOG_FILENAME,
    STORE_FILENAME,
    SemanticAnswerCache,
)
from repro.sql.schema import Column, DatabaseSchema, ForeignKey, Table
from repro.sql.types import DataType


def make_schema(name="shop", extra_table=False, price_type=DataType.REAL):
    tables = [
        Table(
            "items",
            [
                Column("item_id", DataType.INTEGER, primary_key=True),
                Column("price", price_type),
                Column("label", DataType.TEXT),
            ],
        ),
        Table(
            "orders",
            [
                Column("order_id", DataType.INTEGER, primary_key=True),
                Column("item_id", DataType.INTEGER),
            ],
        ),
    ]
    if extra_table:
        tables.append(
            Table("audit_log", [Column("id", DataType.INTEGER)])
        )
    return DatabaseSchema(name, tables)


class TestFingerprint:
    def test_identical_schemas_agree(self):
        assert schema_fingerprint(make_schema()) == schema_fingerprint(
            make_schema()
        )

    def test_declaration_order_is_irrelevant(self):
        forward = make_schema()
        reordered = DatabaseSchema(
            "shop",
            [
                Table(
                    "orders",
                    [
                        Column("item_id", DataType.INTEGER),
                        Column(
                            "order_id", DataType.INTEGER, primary_key=True
                        ),
                    ],
                ),
                Table(
                    "items",
                    [
                        Column("label", DataType.TEXT),
                        Column("price", DataType.REAL),
                        Column(
                            "item_id", DataType.INTEGER, primary_key=True
                        ),
                    ],
                ),
            ],
        )
        assert schema_fingerprint(forward) == schema_fingerprint(reordered)

    def test_structural_changes_perturb(self):
        base = schema_fingerprint(make_schema())
        assert schema_fingerprint(make_schema(extra_table=True)) != base
        assert (
            schema_fingerprint(make_schema(price_type=DataType.INTEGER))
            != base
        )
        assert schema_fingerprint(make_schema(name="other")) != base

    def test_cosmetic_metadata_does_not_perturb(self):
        base = schema_fingerprint(make_schema())
        annotated = make_schema()
        annotated.table("items").synonyms = ("products", "goods")
        annotated.table("items").column("price").nl_name = "unit cost"
        annotated.table("orders").foreign_keys.append(
            ForeignKey("item_id", "items", "item_id")
        )
        assert schema_fingerprint(annotated) == base

    def test_display_form_is_a_short_prefix(self):
        fingerprint = schema_fingerprint(make_schema())
        short = display_fingerprint(fingerprint)
        assert len(short) == DISPLAY_DIGITS
        assert fingerprint.startswith(short)


class TestStoreBasics:
    def test_miss_then_store_then_hit(self):
        cache = SemanticAnswerCache()
        schema = make_schema()
        miss = cache.lookup("t", schema, "show the 5 cheapest items")
        assert miss.outcome == "miss"
        assert cache.store(miss, "SELECT 1", ["note"])
        hit = cache.lookup("t", schema, "list five cheapest items")
        assert hit.outcome == "hit"
        assert hit.sql == "SELECT 1"
        assert hit.notes == ("note",)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_cross_tenant_hit_on_identical_fingerprint(self):
        cache = SemanticAnswerCache()
        schema = make_schema()
        miss = cache.lookup("team-a", schema, "how many items")
        cache.store(miss, "SELECT COUNT(*) FROM items")
        hit = cache.lookup("team-b", schema, "how many items")
        assert hit.outcome == "hit"
        view = cache.statusz_view()
        assert view["tenants"]["team-a"]["misses"] == 1
        assert view["tenants"]["team-b"]["hits"] == 1

    def test_unsignable_questions_bypass(self):
        cache = SemanticAnswerCache()
        lookup = cache.lookup("t", make_schema(), "   ")
        assert lookup.outcome == "bypass"
        assert lookup.reason == "unsignable"
        assert len(cache) == 0

    def test_feedback_rounds_never_read_or_write(self):
        cache = SemanticAnswerCache()
        schema = make_schema()
        miss = cache.lookup("t", schema, "how many items")
        cache.store(miss, "SELECT COUNT(*) FROM items")
        bypass = cache.record_feedback_bypass(
            "t", schema, "how many items"
        )
        assert bypass.outcome == "bypass"
        assert bypass.reason == "feedback"
        assert bypass.sql is None
        assert not cache.store(bypass, "SELECT 'poisoned'")
        assert len(cache) == 1

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            SemanticAnswerCache(max_entries=0)

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = SemanticAnswerCache()
        schema = make_schema()
        cache.store(cache.lookup("t", schema, "how many items"), "SELECT 1")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1
        assert cache.lookup("t", schema, "how many items").outcome == "miss"


class TestStoreRefusals:
    def test_refuses_empty_sql_and_non_miss(self):
        cache = SemanticAnswerCache()
        schema = make_schema()
        miss = cache.lookup("t", schema, "how many items")
        assert not cache.store(miss, "")
        assert cache.store(miss, "SELECT 1")
        hit = cache.lookup("t", schema, "how many items")
        assert not cache.store(hit, "SELECT 2")
        assert cache.lookup("t", schema, "how many items").sql == "SELECT 1"

    def test_refuses_answers_that_raced_a_schema_change(self):
        cache = SemanticAnswerCache()
        stale_miss = cache.lookup("t", make_schema(), "how many items")
        cache.lookup("t", make_schema(extra_table=True), "how many items")
        assert not cache.store(stale_miss, "SELECT 1")
        assert len(cache) == 0


class TestInvalidation:
    def test_schema_change_bypasses_once_and_drops_entries(self):
        cache = SemanticAnswerCache()
        old = make_schema()
        cache.store(cache.lookup("t", old, "how many items"), "SELECT 1")
        assert len(cache) == 1

        new = make_schema(extra_table=True)
        bypass = cache.lookup("t", new, "how many items")
        assert bypass.outcome == "bypass"
        assert bypass.reason == "schema_changed"
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1

        retry = cache.lookup("t", new, "how many items")
        assert retry.outcome == "miss"

    def test_each_tenant_bypasses_once_on_its_own_view_change(self):
        cache = SemanticAnswerCache()
        old = make_schema()
        new = make_schema(extra_table=True)
        cache.lookup("team-a", old, "how many items")
        cache.lookup("team-b", old, "how many items")

        # team-a observes the mutation first and takes its bypass.
        assert cache.lookup("team-a", new, "q").reason == "schema_changed"
        # team-b's recorded view is stale and takes its own bypass.
        stale = cache.lookup("team-b", new, "how many items")
        assert stale.outcome == "bypass"
        assert stale.reason == "schema_changed"
        # One bypass each; both tenants then classify normally again.
        assert cache.lookup("team-b", new, "how many items").outcome == "miss"

    def test_same_db_name_different_schemas_do_not_thrash(self):
        # Two tenants hosting *different* schemas under one database name
        # must not invalidate each other on every alternating lookup.
        cache = SemanticAnswerCache()
        shop_a = make_schema()
        shop_b = make_schema(extra_table=True)
        cache.store(
            cache.lookup("team-a", shop_a, "how many items"), "SELECT 1"
        )
        cache.store(
            cache.lookup("team-b", shop_b, "how many items"), "SELECT 2"
        )
        for _ in range(3):
            assert cache.lookup("team-a", shop_a, "how many items").sql == (
                "SELECT 1"
            )
            assert cache.lookup("team-b", shop_b, "how many items").sql == (
                "SELECT 2"
            )
        assert len(cache) == 2
        assert cache.stats()["invalidations"] == 0
        assert cache.stats()["bypasses"] == 0
        assert cache.stats()["fingerprints"] == 2

    def test_entries_survive_while_any_tenant_references_them(self):
        cache = SemanticAnswerCache()
        old = make_schema()
        new = make_schema(extra_table=True)
        cache.store(cache.lookup("team-a", old, "how many items"), "SELECT 1")
        cache.lookup("team-b", old, "how many items")

        # team-a migrates; team-b still lives on the old fingerprint, so
        # the shared entry must survive.
        assert cache.lookup("team-a", new, "q").reason == "schema_changed"
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 0
        assert cache.lookup("team-b", old, "how many items").outcome == "hit"

        # team-b migrates too: nothing references the old fingerprint
        # anymore, so its entries finally drop.
        assert cache.lookup("team-b", new, "q").reason == "schema_changed"
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1


class TestEviction:
    def test_lru_evicts_coldest_entry(self):
        cache = SemanticAnswerCache(max_entries=2)
        schema = make_schema()
        cache.store(cache.lookup("t", schema, "items over 10"), "SELECT 1")
        cache.store(cache.lookup("t", schema, "items over 20"), "SELECT 2")
        # Touch the first entry so the second becomes coldest.
        assert cache.lookup("t", schema, "items over 10").outcome == "hit"
        cache.store(cache.lookup("t", schema, "items over 30"), "SELECT 3")

        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.lookup("t", schema, "items over 10").outcome == "hit"
        assert cache.lookup("t", schema, "items over 20").outcome == "miss"


class TestPersistence:
    def test_round_trip(self, tmp_path):
        schema = make_schema()
        cache = SemanticAnswerCache(directory=tmp_path)
        cache.store(cache.lookup("t", schema, "how many items"), "SELECT 1")
        path = cache.save()
        assert path == tmp_path / STORE_FILENAME
        assert path.exists()

        reloaded = SemanticAnswerCache(directory=tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats()["misses"] == 1
        hit = reloaded.lookup("t", schema, "how many items")
        assert hit.outcome == "hit"
        assert hit.sql == "SELECT 1"

    def test_corrupt_store_quarantines_and_starts_cold(self, tmp_path):
        schema = make_schema()
        cache = SemanticAnswerCache(directory=tmp_path)
        cache.store(cache.lookup("t", schema, "how many items"), "SELECT 1")
        cache.save()

        (tmp_path / STORE_FILENAME).write_text("{not json", encoding="utf-8")
        cold = SemanticAnswerCache(directory=tmp_path)
        assert len(cold) == 0
        assert cold.lookup("t", schema, "how many items").outcome == "miss"

    def test_question_log_appends_only_when_persistent(self, tmp_path):
        schema = make_schema()
        memory_only = SemanticAnswerCache()
        memory_only.log_round(
            memory_only.lookup("t", schema, "how many items"), kind="ask"
        )

        cache = SemanticAnswerCache(directory=tmp_path)
        lookup = cache.lookup("t", schema, "how many items")
        cache.log_round(lookup, kind="ask")
        cache.log_round(lookup, kind="feedback")
        lines = (
            (tmp_path / LOG_FILENAME)
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert len(lines) == 2
        assert '"kind": "ask"' in lines[0] or '"kind":"ask"' in lines[0]

    def test_store_bytes_are_reproducible(self, tmp_path):
        """Entries carry no timestamp, so two stores that learned the same
        answers persist byte for byte the same file."""

        def build(directory):
            cache = SemanticAnswerCache(directory=directory)
            miss = cache.lookup("t", make_schema(), "show the 5 cheapest items")
            cache.store(miss, "SELECT 1", ["note"])
            return cache.save()

        first = build(tmp_path / "a")
        second = build(tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
        payload = read_checksummed_json(first, kind="semcache")
        (entry,) = payload["entries"].values()
        assert sorted(entry) == ["db", "fingerprint", "notes", "question", "sql"]
