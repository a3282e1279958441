"""The replay harness: read-only re-classification, and each hit's stored
SQL checked against the live model's answer."""

from repro.core.nl2sql import Nl2SqlModel
from repro.durability.atomic import checksummed_json
from repro.llm.interface import Completion
from repro.semcache.model import SemanticCachingNl2SqlModel
from repro.semcache.replay import (
    read_question_log,
    render_replay_report,
    replay,
)
from repro.semcache.store import SemanticAnswerCache, SemcacheLookup
from repro.serve import CatalogEntry
from repro.sql.engine import Database
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType

COUNT = "SELECT COUNT(*) FROM items"
LIST = "SELECT item_id FROM items"


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


class AnswerBook:
    """A chat model that answers each NL2SQL question from a fixed book."""

    def __init__(self, answers):
        self.answers = answers
        self.asked = []

    def complete(self, prompt):
        question = prompt.payload["question"]
        self.asked.append(question)
        return Completion(text=self.answers[question])


def ask(question, db="shop", tenant="t", kind="ask"):
    """A round as ``SemcacheLookup``'s log line holds it."""
    return {
        "tenant": tenant,
        "db": db,
        "question": question,
        "kind": kind,
        "outcome": "miss",
        "reason": None,
    }


class TestReplay:
    def test_breakdown_and_divergences(self):
        schema = make_schema()
        catalog = {"shop": CatalogEntry(Database(schema))}
        # Both questions share one signature; the model answers the
        # second with a listing, so the stored COUNT would be wrong there.
        book = AnswerBook({"how many items": COUNT, "count the items": LIST})
        cache = SemanticAnswerCache()
        cache.store(cache.lookup("t", schema, "how many items"), COUNT)
        records = [
            ask("how many items"),  # a hit the model agrees with
            ask("count the items"),  # a hit the model answers otherwise
            ask("items over 10"),  # miss
            ask("anything", kind="feedback"),  # guardrail bypass
            ask("how many rows", db="mystery"),  # unknown db
        ]
        report = replay(cache, catalog, book, records)

        assert report["rounds"] == 5
        assert report["hits"] == 2
        assert report["misses"] == 1
        assert report["bypasses"] == 2
        assert report["feedback_rounds"] == 1
        assert report["unknown_databases"] == 1
        # Only hits ask the model again.
        assert book.asked == ["how many items", "count the items"]
        assert report["divergence_count"] == 1
        divergence = report["divergences"][0]
        assert divergence["question"] == "count the items"
        assert divergence["model_sql"] == LIST
        assert divergence["cached_sql"] == COUNT

    def test_a_served_wrong_answer_is_a_divergence(self, tmp_path):
        """The log of a hit that served a wrong answer: replay asks the
        model and finds the one divergence."""
        schema = make_schema()
        database = Database(schema)
        book = AnswerBook({"count the items": LIST})
        cache = SemanticAnswerCache(directory=tmp_path)
        cache.store(cache.lookup("t", schema, "how many items"), COUNT)
        served = SemanticCachingNl2SqlModel(
            Nl2SqlModel(llm=book), cache, tenant="t"
        ).predict("count the items", database)
        assert served.sql == COUNT and book.asked == []
        cache.save()

        records, skipped = read_question_log(tmp_path)
        assert skipped == 0
        assert [record["outcome"] for record in records] == ["hit"]
        assert "sql" not in records[0]
        report = replay(
            SemanticAnswerCache(directory=tmp_path),
            {"shop": CatalogEntry(database)},
            book,
            records,
        )
        assert report["hits"] == 1
        assert report["divergence_count"] == 1
        assert report["divergences"][0]["model_sql"] == LIST

    def test_replay_never_mutates_the_store(self):
        schema = make_schema()
        cache = SemanticAnswerCache()
        cache.store(cache.lookup("t", schema, "how many items"), COUNT)
        before = cache.stats()
        replay(
            cache,
            {"shop": CatalogEntry(Database(schema))},
            AnswerBook({"how many items": COUNT}),
            [ask("how many items"), ask("items over 10")],
        )
        assert cache.stats() == before

    def test_malformed_records_are_skipped(self):
        report = replay(
            SemanticAnswerCache(),
            {"shop": CatalogEntry(Database(make_schema()))},
            AnswerBook({}),
            [{"db": "shop"}, {"question": 42, "db": "shop"}, {}],
        )
        assert report["rounds"] == 0


def _log(cache, question):
    lookup = SemcacheLookup(
        outcome="miss", tenant="t", db="shop", question=question,
        fingerprint="fp",
    )
    cache.log_round(lookup, "ask")


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
                    "model_sql": "SELECT 'other'",
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
        assert "model:    SELECT 'other'" in text
        assert "cached:   SELECT COUNT(*)" in text

    def test_render_truncates_past_the_limit(self):
        divergences = [
            {
                "db": "shop",
                "question": f"q{i}",
                "model_sql": "a",
                "cached_sql": "b",
            }
            for i in range(5)
        ]
        text = render_replay_report(
            {"rounds": 5, "hits": 5, "divergences": divergences}, limit=2
        )
        assert "... and 3 more" in text
