"""The query memo: each distinct query runs once per database state.

Every :class:`Database` connection keeps the answer (column names and
rows) of each query tree it ran, keyed by the tree's identity, and every
write through it clears them. A query text reaches the memo through the
parse memo, which hands each text one tree. ``serve`` request threads
share a suite's databases, so the memo is also driven by readers racing a
writer.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import CatalogError, ExecutionError
from repro.sql import engine
from repro.sql.engine import RESULT_MEMO_SIZE, Database
from repro.sql.parser import Parser, parse_query
from repro.sql.printer import print_query


def _counters() -> dict[str, float]:
    return {
        counter["name"]: counter["value"]
        for counter in obs.snapshot()["counters"]
        if counter["name"].startswith("sql.execute.")
    }


@pytest.fixture()
def db():
    database = Database.from_ddl(
        "memo", "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)"
    )
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    return database


@pytest.fixture()
def counters():
    obs.enable(max_spans=0)
    try:
        yield _counters
    finally:
        obs.disable()


def test_equal_text_runs_once_and_every_call_is_counted(db, counters):
    for _ in range(3):
        assert db.query("SELECT name FROM t").rows == [("a",), ("b",)]
    assert counters() == {"sql.execute.calls": 3, "sql.execute.misses": 1}


def test_each_call_gets_rows_of_its_own(db):
    first = db.query("SELECT name FROM t")
    first.rows[0] = ("changed",)
    first.rows.append(("added",))
    second = db.query("SELECT name FROM t")
    second.rows.clear()
    assert db.query("SELECT name FROM t").rows == [("a",), ("b",)]


def test_the_key_is_the_text_sqlite_runs(db):
    # 7 == 7.0 in Python, so the two trees compare and hash alike; their
    # printed texts differ, and so do SQLite's answers.
    assert db.query("SELECT 7.0 / 2").scalar() == 3.5
    assert db.query("SELECT 7 / 2").scalar() == 3
    assert db.query("SELECT 7.0 / 2").scalar() == 3.5


_COUNT = "SELECT COUNT(*) FROM t"

#: Each write path: the write, a query it changes, and the query's
#: answer before and after.
_WRITES = {
    "TableData.insert": (lambda d: d.data("t").insert((3, "c")), _COUNT, 2, 3),
    "TableData.insert_named": (
        lambda d: d.data("t").insert_named({"id": 3, "name": "c"}),
        _COUNT,
        2,
        3,
    ),
    "Database.load_rows": (
        lambda d: d.load_rows("t", [(3, "c"), (4, "d")]),
        _COUNT,
        2,
        4,
    ),
    "INSERT": (lambda d: d.execute("INSERT INTO t VALUES (3, 'c')"), _COUNT, 2, 3),
    "UPDATE": (
        lambda d: d.execute("UPDATE t SET name = 'z' WHERE id = 1"),
        "SELECT name FROM t WHERE id = 1",
        "a",
        "z",
    ),
    "DELETE": (lambda d: d.execute("DELETE FROM t WHERE id = 1"), _COUNT, 2, 1),
    "CREATE TABLE": (
        lambda d: d.execute("CREATE TABLE u (x INTEGER)"),
        "SELECT COUNT(*) FROM sqlite_master",
        1,
        2,
    ),
}


@pytest.mark.parametrize("path", sorted(_WRITES))
def test_a_query_after_a_write_sees_it(db, path):
    write, sql, before, after = _WRITES[path]
    assert db.query(sql).scalar() == before
    write(db)
    assert db.query(sql).scalar() == after


def test_a_query_after_drop_table_fails(db):
    db.execute("CREATE TABLE u (x INTEGER)")
    assert db.query("SELECT COUNT(*) FROM u").scalar() == 0
    db.execute("DROP TABLE u")
    with pytest.raises(CatalogError):
        db.query("SELECT COUNT(*) FROM u")


def test_ddl_changes_what_a_star_names(db):
    tree = parse_query("SELECT * FROM t")
    assert db.execute_ast(tree).columns == ["id", "name"]
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (b INTEGER, c TEXT)")
    assert db.execute_ast(tree).columns == ["b", "c"]


def test_a_tree_is_printed_once_per_database_state(db, monkeypatch):
    printed = []

    def counting_print(query):
        printed.append(query)
        return print_query(query)

    monkeypatch.setattr(engine, "print_query", counting_print)
    tree = parse_query("SELECT name FROM t")
    for _ in range(3):
        assert db.execute_ast(tree).rows == [("a",), ("b",)]
    assert len(printed) == 1
    db.data("t").insert((3, "c"))
    assert db.execute_ast(tree).rows == [("a",), ("b",), ("c",)]
    assert len(printed) == 2


def test_a_plan_made_before_a_write_is_not_kept(db, monkeypatch):
    # A write that arrives while a miss names its columns waits for the
    # miss; it then clears what the miss kept, so the columns named before
    # the DDL are not left behind for the runs after it.
    tree = parse_query("SELECT * FROM t")
    column_names = Database._column_names

    def rebuild_t() -> None:
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (b INTEGER, c TEXT)")

    writer = threading.Thread(target=rebuild_t)

    def names_while_a_write_waits(database, query):
        writer.start()
        writer.join(timeout=0.2)
        assert writer.is_alive(), "the write landed inside the miss"
        return column_names(database, query)

    monkeypatch.setattr(Database, "_column_names", names_while_a_write_waits)
    assert db.execute_ast(tree).columns == ["id", "name"]
    monkeypatch.setattr(Database, "_column_names", column_names)
    writer.join(timeout=10.0)
    assert not writer.is_alive()
    assert db.execute_ast(tree).columns == ["b", "c"]


def test_two_trees_of_one_text_each_run_once_and_answer_alike(db, counters):
    text = "SELECT name FROM t"
    first, second = Parser(text).parse_query(), Parser(text).parse_query()
    assert first == second and first is not second
    for _ in range(2):
        for tree in (first, second):
            result = db.execute_ast(tree)
            assert (result.columns, result.rows) == (["name"], [("a",), ("b",)])
    assert counters()["sql.execute.misses"] == 2


def test_a_tree_runs_again_after_a_write(db, counters):
    tree = parse_query(_COUNT)
    assert [db.execute_ast(tree).scalar() for _ in range(2)] == [2, 2]
    assert counters()["sql.execute.misses"] == 1
    db.data("t").insert((3, "c"))
    assert [db.execute_ast(tree).scalar() for _ in range(2)] == [3, 3]
    assert counters()["sql.execute.misses"] == 2


def test_each_call_gets_column_names_of_its_own(db):
    tree = parse_query("SELECT name FROM t")
    db.execute_ast(tree).columns.append("added")
    assert db.execute_ast(tree).columns == ["name"]


def test_a_failing_tree_fails_as_sqlite_says_and_is_not_planned(db, counters):
    tree = parse_query("SELECT * FROM missing")
    for _ in range(2):
        with pytest.raises(CatalogError, match="no such table: missing"):
            db.execute_ast(tree)
    # Not kept: SQLite ran it on both calls.
    assert counters()["sql.execute.misses"] == 2
    assert id(tree) not in db._connection._answers


def test_the_plans_keep_the_most_recent_trees(db, counters):
    trees = [
        parse_query(f"SELECT id * {i} FROM t") for i in range(RESULT_MEMO_SIZE + 1)
    ]
    for tree in trees[:-1]:
        db.execute_ast(tree)
    db.execute_ast(trees[0])  # a hit: now the most recently used
    db.execute_ast(trees[-1])  # one tree too many
    answers = db._connection._answers
    assert len(answers) == RESULT_MEMO_SIZE
    # The second tree was used least recently, so it left.
    assert id(trees[1]) not in answers
    assert id(trees[0]) in answers and id(trees[-1]) in answers
    assert counters()["sql.execute.misses"] == RESULT_MEMO_SIZE + 1
    db.execute_ast(trees[1])
    assert counters()["sql.execute.misses"] == RESULT_MEMO_SIZE + 2


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT RANDOM()",
        "SELECT RANDOMBLOB(4)",
        "SELECT CHANGES()",
        "SELECT LAST_INSERT_ROWID()",
        "SELECT TOTAL_CHANGES()",
        "SELECT DATE('now')",
        "SELECT TIME('now')",
        "SELECT DATETIME('now')",
        "SELECT JULIANDAY('now')",
        "SELECT UNIXEPOCH('now')",
        "SELECT STRFTIME('%s', 'now')",
        "SELECT name FROM t WHERE id IN (SELECT id FROM t WHERE RANDOM() > 0)",
    ],
)
def test_a_volatile_query_runs_every_time(db, counters, sql):
    for _ in range(2):
        try:
            db.query(sql)
        except ExecutionError:
            pass  # SQLite before 3.38 has no UNIXEPOCH; a failure runs anew too
    assert counters()["sql.execute.misses"] == 2


def test_random_answers_anew(db, counters):
    values = [db.query("SELECT RANDOM()").scalar() for _ in range(2)]
    assert values[0] != values[1]
    assert counters()["sql.execute.misses"] == 2


def test_a_failing_query_raises_and_is_counted_every_time(db, counters):
    for _ in range(3):
        with pytest.raises(CatalogError):
            db.query("SELECT nope FROM t")
    assert counters() == {
        "sql.execute.calls": 3,
        "sql.execute.misses": 3,
        "sql.execute.failures": 3,
    }


def test_the_memo_keeps_the_most_recent_texts(db, counters):
    texts = [f"SELECT id + {i} FROM t" for i in range(RESULT_MEMO_SIZE + 1)]
    for text in texts:
        db.query(text)
    assert len(db._connection._answers) == RESULT_MEMO_SIZE
    # The first text was used least recently, so it left; the last stayed.
    db.query(texts[-1])
    assert counters()["sql.execute.misses"] == RESULT_MEMO_SIZE + 1
    db.query(texts[0])
    assert counters()["sql.execute.misses"] == RESULT_MEMO_SIZE + 2
    assert len(db._connection._answers) == RESULT_MEMO_SIZE


def test_readers_racing_a_writer_never_see_a_stale_count():
    db = Database.from_ddl("race", "CREATE TABLE t (id INTEGER PRIMARY KEY)")
    texts = [
        "SELECT COUNT(*) FROM t",
        "SELECT COUNT(id) FROM t",
        "SELECT COUNT(*) FROM t WHERE id > 0",
    ]
    inserts = 400
    published = [0]
    done = threading.Event()
    # The deadline only bounds a pathologically slow machine.
    deadline = time.monotonic() + 20.0
    problems: list[str] = []

    def writer() -> None:
        try:
            for i in range(1, inserts + 1):
                if time.monotonic() > deadline:
                    return
                db.data("t").insert((i,))
                published[0] = i
        finally:
            done.set()

    def reader() -> None:
        while not done.is_set():
            for text in texts:
                floor = published[0]
                count = db.query(text).scalar()
                if count < floor:
                    problems.append(f"{text!r} read {count} after insert {floor}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not problems, problems[:5]
    fresh = len(db.data("t"))
    assert fresh == published[0] > 0
    for text in texts:
        assert db.query(text).scalar() == fresh, text
