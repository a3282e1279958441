"""Prompt construction and simulated-LLM dispatch tests."""

import pytest

from repro.datasets.base import Demonstration
from repro.errors import PromptError
from repro.llm.interface import (
    KIND_FEEDBACK,
    KIND_NL2SQL,
    KIND_REWRITE,
    KIND_ROUTING,
    Prompt,
)
from repro.llm.prompts import (
    feedback_prompt,
    nl2sql_prompt,
    render_feedback_demo,
    rewrite_prompt,
    routing_prompt,
)
from repro.llm import simulated
from repro.llm.simulated import SimulatedLLM, derive_conventions, merge_glossaries
from repro.sql.engine import Database
from repro.sql.parser import parse_query


@pytest.fixture()
def schema(aep_db):
    return aep_db.schema


class TestPromptShapes:
    def test_zero_shot_prompt_contains_schema_and_question(self, schema):
        prompt = nl2sql_prompt(schema, "How many segments are there?")
        assert prompt.kind == KIND_NL2SQL
        assert "CREATE TABLE hkg_dim_segment" in prompt.text
        assert "How many segments are there?" in prompt.text
        assert "examples" not in prompt.text.lower()

    def test_rag_prompt_includes_demos(self, schema):
        demo = Demonstration(
            question="q1", sql="SELECT 1", db_id="experience_platform"
        )
        prompt = nl2sql_prompt(schema, "another", demos=[demo])
        assert "Here are some examples" in prompt.text
        assert "SELECT 1" in prompt.text

    def test_feedback_prompt_figure6_structure(self, schema):
        prompt = feedback_prompt(
            schema=schema,
            question="how many audiences were created in January?",
            previous_sql="SELECT COUNT(*) FROM hkg_dim_segment",
            feedback="we are in 2024",
        )
        assert prompt.kind == KIND_FEEDBACK
        assert "has received the following feedback: we are in 2024" in prompt.text
        assert "please rewrite the SQL query" in prompt.text

    def test_feedback_prompt_includes_highlight(self, schema):
        prompt = feedback_prompt(
            schema=schema,
            question="q",
            previous_sql="SELECT 1",
            feedback="change to 2024",
            highlight="WHERE createdtime",
        )
        assert "highlighted" in prompt.text

    def test_figure5_demo_format(self):
        block = render_feedback_demo(
            question="q", sql="SELECT 1", feedback="f", revised_sql="SELECT 2"
        )
        assert block.splitlines()[0] == "Question: q"
        assert "Taking into account the feedback" in block

    def test_routing_prompt_has_fewshots(self):
        prompt = routing_prompt("we are in 2024", examples=[("do not", "Remove")])
        assert prompt.kind == KIND_ROUTING
        assert "Feedback: do not" in prompt.text

    def test_rewrite_prompt(self):
        prompt = rewrite_prompt("q", "f")
        assert prompt.kind == KIND_REWRITE
        assert "Rewritten question:" in prompt.text


class TestConventionLearning:
    def test_count_distinct_convention(self):
        demos = [
            Demonstration(
                question="How many colors are represented among the cars?",
                sql="SELECT COUNT(DISTINCT color) FROM car",
                db_id="x",
            )
        ]
        assert "count_distinct" in derive_conventions(demos)

    def test_sum_convention(self):
        demos = [
            Demonstration(
                question="How many sales do the stores have altogether?",
                sql="SELECT SUM(sales) FROM store",
                db_id="x",
            )
        ]
        assert "sum_how_many" in derive_conventions(demos)

    def test_distinct_values_convention(self):
        demos = [
            Demonstration(
                question="What are the color values of the cars?",
                sql="SELECT DISTINCT color FROM car",
                db_id="x",
            )
        ]
        assert "distinct_values" in derive_conventions(demos)

    def test_first_is_top_convention(self):
        demos = [
            Demonstration(
                question="List the names of the first 5 cars by price.",
                sql="SELECT name FROM car ORDER BY price DESC LIMIT 5",
                db_id="x",
            )
        ]
        assert "first_is_top" in derive_conventions(demos)

    def test_name_only_convention(self):
        demos = [
            Demonstration(
                question="List the cars with price greater than 10.",
                sql="SELECT name FROM car WHERE price > 10",
                db_id="x",
            )
        ]
        assert "name_only_listing" in derive_conventions(demos)

    def test_unparseable_demo_ignored(self):
        demos = [Demonstration(question="how many x", sql="NOT SQL", db_id="x")]
        assert derive_conventions(demos) == frozenset()

    def test_clean_demo_teaches_nothing(self):
        demos = [
            Demonstration(
                question="How many cars are there?",
                sql="SELECT COUNT(*) FROM car",
                db_id="x",
            )
        ]
        assert derive_conventions(demos) == frozenset()

    def test_each_demonstration_is_read_once(self, monkeypatch):
        parsed: list[str] = []

        def counting(text):
            parsed.append(text)
            return parse_query(text)

        monkeypatch.setattr(simulated, "parse_query", counting)
        distinct = Demonstration(
            question="How many colors are represented among the cars?",
            sql="SELECT COUNT(DISTINCT color) FROM car",
            db_id="x",
        )
        total = Demonstration(
            question="How many sales do the stores have altogether?",
            sql="SELECT SUM(sales) FROM store",
            db_id="x",
        )
        broken = Demonstration(question="how many x", sql="NOT SQL", db_id="x")
        for _ in range(3):
            assert derive_conventions([distinct, total, broken]) == {
                "count_distinct",
                "sum_how_many",
            }
        assert derive_conventions([total]) == {"sum_how_many"}
        assert derive_conventions([]) == frozenset()
        assert parsed == [distinct.sql, total.sql, broken.sql]
        assert (distinct.conventions, broken.conventions) == (
            {"count_distinct"},
            frozenset(),
        )
        # What a demonstration taught is no part of its value.
        assert distinct == Demonstration(
            question=distinct.question, sql=distinct.sql, db_id="x"
        )
        assert "conventions" not in repr(distinct)

    def test_glossary_merge(self):
        demos = [
            Demonstration(question="a", sql="SELECT 1", db_id="x", glossary={"a": "t1"}),
            Demonstration(question="b", sql="SELECT 1", db_id="x", glossary={"b": "t2"}),
        ]
        assert merge_glossaries(demos) == {"a": "t1", "b": "t2"}


class TestSimulatedDispatch:
    def test_nl2sql_completion_is_sql(self, aep_db):
        llm = SimulatedLLM()
        prompt = nl2sql_prompt(aep_db.schema, "How many segments are there?")
        completion = llm.complete(prompt)
        assert completion.text == "SELECT COUNT(*) FROM hkg_dim_segment"

    def test_routing_completion(self):
        llm = SimulatedLLM()
        assert llm.complete(routing_prompt("we are in 2024")).text == "edit"
        assert llm.complete(routing_prompt("do not give descriptions")).text == (
            "remove"
        )

    def test_feedback_completion_edits_year(self, aep_db):
        llm = SimulatedLLM()
        prompt = feedback_prompt(
            schema=aep_db.schema,
            question="how many audiences were created in January?",
            previous_sql=(
                "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
                "'2023-01-01' AND createdtime < '2023-02-01'"
            ),
            feedback="we are in 2024",
            feedback_type="edit",
        )
        completion = llm.complete(prompt)
        assert "'2024-01-01'" in completion.text
        assert "'2024-02-01'" in completion.text

    def test_feedback_on_unparseable_sql_is_noop(self, aep_db):
        llm = SimulatedLLM()
        prompt = feedback_prompt(
            schema=aep_db.schema,
            question="q",
            previous_sql="totally not sql",
            feedback="we are in 2024",
        )
        completion = llm.complete(prompt)
        assert completion.text == "totally not sql"

    def test_unknown_prompt_kind_raises(self):
        with pytest.raises(PromptError):
            SimulatedLLM().complete(Prompt(kind="nope", text=""))


class TestRewriteMerge:
    def test_year_inlined_after_month(self):
        llm = SimulatedLLM()
        prompt = rewrite_prompt(
            "How many audiences were created in January?", "we are in 2024"
        )
        merged = llm.complete(prompt).text
        assert "January 2024" in merged

    def test_existing_year_replaced(self):
        llm = SimulatedLLM()
        prompt = rewrite_prompt(
            "How many audiences were created in January 2023?", "we are in 2024"
        )
        assert "2024" in llm.complete(prompt).text

    def test_operation_feedback_becomes_trailing_clause(self):
        llm = SimulatedLLM()
        prompt = rewrite_prompt(
            "List the segments.", "do not give descriptions"
        )
        merged = llm.complete(prompt).text
        assert "note that do not give descriptions" in merged
