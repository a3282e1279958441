"""The replay harness: read-only re-classification plus divergence report."""

from repro.durability.atomic import checksummed_json
from repro.semcache.replay import (
    read_question_log,
    render_replay_report,
    replay,
)
from repro.semcache.store import SemanticAnswerCache, SemcacheLookup
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


def make_schema(name="shop"):
    return DatabaseSchema(
        name,
        [
            Table(
                "items",
                [
                    Column("item_id", DataType.INTEGER, primary_key=True),
                    Column("price", DataType.REAL),
                ],
            )
        ],
    )


def ask(question, sql, db="shop", tenant="t", kind="ask"):
    return {
        "tenant": tenant,
        "db": db,
        "question": question,
        "kind": kind,
        "outcome": "miss",
        "reason": None,
        "sql": sql,
    }


class TestReplay:
    def test_breakdown_and_divergences(self):
        schema = make_schema()
        cache = SemanticAnswerCache()
        cache.store(
            cache.lookup("t", schema, "how many items"), "SELECT COUNT(*)"
        )
        records = [
            ask("how many items", "SELECT COUNT(*)"),  # agreeing hit
            ask("count the items", "SELECT 'other'"),  # diverging hit
            ask("items over 10", "SELECT 1"),  # miss
            ask("anything", None, kind="feedback"),  # guardrail bypass
            ask("how many rows", "SELECT 2", db="mystery"),  # unknown db
        ]
        report = replay(cache, {"shop": schema}, records)

        assert report["rounds"] == 5
        assert report["hits"] == 2
        assert report["misses"] == 1
        assert report["bypasses"] == 2
        assert report["feedback_rounds"] == 1
        assert report["unknown_databases"] == 1
        assert report["divergence_count"] == 1
        divergence = report["divergences"][0]
        assert divergence["question"] == "count the items"
        assert divergence["recorded_sql"] == "SELECT 'other'"
        assert divergence["cached_sql"] == "SELECT COUNT(*)"

    def test_replay_never_mutates_the_store(self):
        schema = make_schema()
        cache = SemanticAnswerCache()
        cache.store(
            cache.lookup("t", schema, "how many items"), "SELECT COUNT(*)"
        )
        before = cache.stats()
        replay(
            cache,
            {"shop": schema},
            [
                ask("how many items", "SELECT COUNT(*)"),
                ask("items over 10", "SELECT 1"),
            ],
        )
        assert cache.stats() == before

    def test_malformed_records_are_skipped(self):
        report = replay(
            SemanticAnswerCache(),
            {"shop": make_schema()},
            [{"db": "shop"}, {"question": 42, "db": "shop"}, {}],
        )
        assert report["rounds"] == 0


def _log(cache, question):
    lookup = SemcacheLookup(
        outcome="miss", tenant="t", db="shop", question=question,
        fingerprint="fp",
    )
    cache.log_round(lookup, "ask", served_sql="SELECT 1")


class TestQuestionLog:
    def test_missing_log_is_empty(self, tmp_path):
        assert read_question_log(tmp_path) == ([], 0)

    def test_malformed_lines_are_skipped(self, tmp_path):
        (tmp_path / "questions.jsonl").write_text(
            checksummed_json({"question": "q", "db": "shop"}) + "\n"
            "not json\n"
            '{"question": "bare", "db": "shop"}\n'
            + checksummed_json([1, 2, 3]) + "\n"
            "\n"
            + checksummed_json({"question": "r", "db": "shop"}) + "\n",
            encoding="utf-8",
        )
        records, skipped = read_question_log(tmp_path)
        assert [record["question"] for record in records] == ["q", "r"]
        assert skipped == 3

    def test_line_separators_inside_a_question_stay_one_round(
        self, tmp_path
    ):
        cache = SemanticAnswerCache(directory=tmp_path)
        questions = ["how many items", "items\u2028over 10", "cheap items"]
        for question in questions:
            _log(cache, question)
        records, skipped = read_question_log(tmp_path)
        assert [record["question"] for record in records] == questions
        assert skipped == 0

    def test_a_byte_that_is_not_utf8_costs_its_own_line(self, tmp_path):
        cache = SemanticAnswerCache(directory=tmp_path)
        for question in ("how many items", "items über 10", "cheap items"):
            _log(cache, question)
        path = tmp_path / "questions.jsonl"
        data = bytearray(path.read_bytes())
        data[data.index("ü".encode("utf-8"))] = 0xFF  # rot one byte
        path.write_bytes(bytes(data))
        records, skipped = read_question_log(tmp_path)
        assert [record["question"] for record in records] == [
            "how many items",
            "cheap items",
        ]
        assert skipped == 1


class TestRenderReport:
    def test_render_includes_rates_and_divergences(self):
        report = {
            "rounds": 4,
            "hits": 1,
            "misses": 1,
            "bypasses": 2,
            "feedback_rounds": 1,
            "unknown_databases": 1,
            "divergences": [
                {
                    "db": "shop",
                    "question": "count the items",
                    "recorded_sql": "SELECT 'other'",
                    "cached_sql": "SELECT COUNT(*)",
                }
            ],
            "divergence_count": 1,
        }
        text = render_replay_report(report)
        assert "rounds:        4" in text
        assert "skipped lines: 0" in text
        assert "hits:          1 (50.0% of answerable)" in text
        assert "divergences:   1" in text
        assert "[shop] count the items" in text
        assert "recorded: SELECT 'other'" in text

    def test_render_truncates_past_the_limit(self):
        divergences = [
            {
                "db": "shop",
                "question": f"q{i}",
                "recorded_sql": "a",
                "cached_sql": "b",
            }
            for i in range(5)
        ]
        text = render_replay_report(
            {"rounds": 5, "hits": 5, "divergences": divergences}, limit=2
        )
        assert "... and 3 more" in text
