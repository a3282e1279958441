"""The link memo: one linker per schema, each phrase linked once.

Every table and column link is a pure function of the linker's table set
and the phrase, so the memoized answer must equal the raw argmax: the
same table and column objects and the same score, compared with ``==``.
``serve`` request threads share the memo, so it is also driven from
several threads at once with more distinct phrases than it holds.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.editor import FeedbackEditor
from repro.core.linking import LINK_MEMO_SIZE, SchemaLinker, _memo_link
from repro.core.semparse import SemanticParser
from repro.eval.experiments import run_figure2, run_figure8, run_table2, run_table3
from repro.eval.harness import ExperimentContext, build_context
from repro.llm.prompts import feedback_prompt, nl2sql_prompt
from repro.llm.simulated import SimulatedLLM
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


def _same_link(memoized, raw) -> bool:
    """Equal links: the same table (and column) objects, scores by ``==``."""
    if memoized is None or raw is None:
        return memoized is raw
    return (
        memoized.table is raw.table
        and getattr(memoized, "column", None) is getattr(raw, "column", None)
        and memoized.phrase == raw.phrase
        and memoized.score == raw.score
    )


def _schema(*table_names: str) -> DatabaseSchema:
    return DatabaseSchema(
        "db",
        [
            Table(name, [Column("id", DataType.INTEGER), Column("title", DataType.TEXT)])
            for name in table_names
        ],
    )


def test_every_phrase_a_small_sweep_links_equals_the_raw_argmax(monkeypatch):
    tables: dict[tuple, tuple] = {}
    columns: dict[tuple, tuple] = {}
    best_table = SchemaLinker._best_table
    best_column = SchemaLinker._best_column

    def record_table(linker, phrase):
        tables[(linker, phrase)] = (linker, phrase)
        return best_table(linker, phrase)

    def record_column(linker, table, phrase):
        columns[(linker, id(table), phrase)] = (linker, table, phrase)
        return best_column(linker, table, phrase)

    monkeypatch.setattr(SchemaLinker, "_best_table", record_table)
    monkeypatch.setattr(SchemaLinker, "_best_column", record_column)
    built = build_context(scale="small")
    context = ExperimentContext(
        scale=built.scale,
        seed=built.seed,
        spider=built.spider,
        aep_benchmark=built.aep_benchmark,
        aep_demos=built.aep_demos,
    )
    for run in (run_figure2, run_table2, run_figure8, run_table3):
        run(context)
    monkeypatch.undo()

    assert len(tables) > 100 and len(columns) > 50
    for linker, phrase in tables.values():
        assert _same_link(
            linker._best_table(phrase), linker._argmax_table(phrase)
        ), phrase
    for linker, table, phrase in columns.values():
        assert _same_link(
            linker._best_column(table, phrase), linker._argmax_column(table, phrase)
        ), (table.name, phrase)


_phrases = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz _", max_size=30),
    st.text(max_size=12),
    st.sampled_from(
        ["segments", "audiences", "destinations", "profile count", "status"]
    ),
)


@given(phrase=_phrases)
@settings(max_examples=150, deadline=None)
def test_memoized_links_equal_the_raw_argmax(aep_db, phrase):
    linker = aep_db.schema.linker()
    table = aep_db.schema.table("hkg_dim_segment")
    # The first call may miss and the second hits; both are the argmax.
    for _ in range(2):
        assert _same_link(linker._best_table(phrase), linker._argmax_table(phrase))
        assert _same_link(
            linker._best_column(table, phrase), linker._argmax_column(table, phrase)
        )


class TestOneLinkerPerSchema:
    def test_parser_and_editor_share_the_schemas_linker(self, music_db):
        schema = music_db.schema
        linker = schema.linker()
        assert schema.linker() is linker
        assert SemanticParser(schema).linker is linker
        assert FeedbackEditor(schema)._linker is linker

    def test_the_model_builds_one_linker_over_many_prompts(
        self, music_db, monkeypatch
    ):
        built: list[SchemaLinker] = []
        init = SchemaLinker.__init__

        def counting_init(linker, schema):
            built.append(linker)
            init(linker, schema)

        monkeypatch.setattr(SchemaLinker, "__init__", counting_init)
        llm = SimulatedLLM()
        schema = music_db.schema
        for question in ("how many singers are there", "list the singers"):
            llm.complete(nl2sql_prompt(schema, question))
        llm.complete(
            feedback_prompt(
                schema=schema,
                question="list the singers",
                previous_sql="SELECT Name FROM singer",
                feedback="also give the age",
            )
        )
        assert built == [schema.linker()]

    def test_create_and_drop_table_reset_the_linker(self, music_db):
        schema = music_db.schema
        before = schema.linker()
        assert before.link_table("concerts") is None
        music_db.execute(
            "CREATE TABLE concert (concert_id INTEGER PRIMARY KEY, theme TEXT)"
        )
        after = schema.linker()
        assert after is not before
        assert after.link_table("concerts").table is schema.table("concert")
        assert SemanticParser(schema).linker is after
        music_db.execute("DROP TABLE concert")
        assert schema.linker() is not after
        assert schema.linker().link_table("concerts") is None

    def test_a_table_outside_the_linkers_set_is_linked_but_not_kept(self):
        schema = _schema("singer", "song")
        linker = schema.linker()
        stranger = Table("album", [Column("album_title", DataType.TEXT)])
        kept = _memo_link.cache_info().currsize
        link = linker.link_column(stranger, "album title")
        assert link.table is stranger and link.column.name == "album_title"
        assert _memo_link.cache_info().currsize == kept


class TestMemo:
    @pytest.fixture()
    def counter(self):
        obs.enable(max_spans=0)
        try:
            yield lambda name: obs.get_metrics().counter_total(name)
        finally:
            obs.disable()

    def test_a_repeated_phrase_links_once_and_every_call_counts(self, counter):
        linker = _schema("singer", "song").linker()
        table = linker.schema.table("song")
        answers = [linker.link_table("songs") for _ in range(3)]
        assert answers[0] is answers[1] is answers[2]
        columns = [linker.link_column(table, "title") for _ in range(2)]
        assert columns[0] is columns[1]
        assert counter("linking.calls") == 5
        assert counter("linking.misses") == 2

    def test_links_are_frozen(self):
        linker = _schema("singer", "song").linker()
        table_link = linker.link_table("songs")
        column_link = linker.link_column(table_link.table, "title")
        with pytest.raises(dataclasses.FrozenInstanceError):
            table_link.score = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            column_link.column = table_link.table.columns[0]
        assert linker.link_table("songs").score == 1.0

    def test_the_memo_keeps_at_most_its_size(self):
        linker = _schema("singer", "song").linker()
        _memo_link.cache_clear()
        try:
            for index in range(LINK_MEMO_SIZE + 1):
                linker.link_table(f"phrase {index}")
            info = _memo_link.cache_info()
        finally:
            # Drop the filler; later tests start from an empty memo.
            _memo_link.cache_clear()
        assert info.currsize == LINK_MEMO_SIZE
        assert info.misses == LINK_MEMO_SIZE + 1

    def test_threads_share_a_bounded_memo(self):
        schema = _schema("singer", "song", "concert", "stadium")
        linker = schema.linker()
        table = schema.table("concert")
        keys = [
            (f"songs of concert {i}", i % 2 == 0)
            for i in range(LINK_MEMO_SIZE + 1024)
        ]

        def raw(key):
            phrase, of_table = key
            if of_table:
                return linker._argmax_table(phrase)
            return linker._argmax_column(table, phrase)

        def memoized(key):
            phrase, of_table = key
            if of_table:
                return linker._best_table(phrase)
            return linker._best_column(table, phrase)

        expected = {key: raw(key) for key in keys}
        _memo_link.cache_clear()
        # Eight overlapping quarters cover every key twice, so the memo
        # fills and evicts; the deadline only bounds a very slow machine.
        deadline = time.monotonic() + 30.0
        problems: list[str] = []

        def worker(offset: int) -> None:
            order = (keys[offset:] + keys[:offset])[: len(keys) // 4]
            for key in order:
                if time.monotonic() > deadline:
                    return
                if not _same_link(memoized(key), expected[key]):
                    problems.append(f"wrong link for {key!r}")
                size = _memo_link.cache_info().currsize
                if size > LINK_MEMO_SIZE:
                    problems.append(f"memo holds {size} links")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k * len(keys) // 8,))
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            info = _memo_link.cache_info()
            _memo_link.cache_clear()
        assert not any(thread.is_alive() for thread in threads)
        assert not problems, problems[:5]
        assert info.currsize == LINK_MEMO_SIZE
        assert info.misses > LINK_MEMO_SIZE
