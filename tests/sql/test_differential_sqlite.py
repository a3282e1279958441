"""Differential testing: the Database facade vs raw sqlite3.

The facade runs SQL on sqlite3 too, but between the caller and SQLite it
coerces and loads rows (:class:`~repro.sql.storage.TableData`), prints
each parsed tree back to SQL, names the result columns and orders
unordered results. These checks run the same SQL on a raw ``sqlite3``
connection holding the same rows, so a fault in the facade's loading,
conversion or ordering shows as a mismatch:

* randomly generated queries over a randomly populated table must produce
  the same multiset of rows on both;
* every distinct statement a small-scale sweep executes — suite generation
  and the four paper artifacts — must agree with sqlite3 on the same rows:
  the same multiset, the same order under a top-level ``ORDER BY``, and an
  error on both or on neither.
"""

from __future__ import annotations

import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SqlError
from repro.eval import harness
from repro.eval.experiments import run_figure2, run_figure8, run_table2, run_table3
from repro.sql.comparison import normalize_row, query_is_ordered
from repro.sql.engine import Database
from repro.sql.printer import print_query

_COLUMNS = ["id", "name", "grp", "score", "qty"]


def _build_pair(rows):
    """Create the same table in both engines."""
    ours = Database.from_ddl(
        "diff",
        "CREATE TABLE t (id INTEGER, name TEXT, grp TEXT, score REAL, qty INTEGER)",
    )
    theirs = sqlite3.connect(":memory:")
    theirs.execute(
        "CREATE TABLE t (id INTEGER, name TEXT, grp TEXT, score REAL, qty INTEGER)"
    )
    for row in rows:
        ours.data("t").insert(row)
        theirs.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row)
    return ours, theirs


_rows = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.sampled_from(["ann", "bob", "cat", "dan"]),
        st.sampled_from(["x", "y", "z"]),
        st.one_of(st.none(), st.floats(0, 100, allow_nan=False).map(lambda f: round(f, 2))),
        st.one_of(st.none(), st.integers(-5, 5)),
    ),
    min_size=0,
    max_size=25,
)

_predicates = st.sampled_from(
    [
        "qty > 0",
        "score >= 50.0",
        "name = 'ann'",
        "grp IN ('x', 'y')",
        "name LIKE 'a%'",
        "qty IS NULL",
        "qty IS NOT NULL",
        "score BETWEEN 10.0 AND 60.0",
        "qty > 0 AND grp = 'x'",
        "qty < 0 OR name = 'bob'",
        "NOT (grp = 'z')",
        "id % 2 = 0",
    ]
)

_projections = st.sampled_from(
    [
        "name",
        "name, grp",
        "id + qty",
        "COUNT(*)",
        "COUNT(qty)",
        "COUNT(DISTINCT grp)",
        "SUM(qty)",
        "AVG(score)",
        "MIN(score), MAX(score)",
        "LOWER(name)",
        "LENGTH(name)",
    ]
)


@st.composite
def _queries(draw):
    projection = draw(_projections)
    where = ""
    if draw(st.booleans()):
        where = f" WHERE {draw(_predicates)}"
    group = ""
    aggregates = ("COUNT", "SUM", "AVG", "MIN", "MAX")
    if projection.startswith(aggregates) and draw(st.booleans()):
        group = " GROUP BY grp"
        projection = f"grp, {projection}"
    distinct = "DISTINCT " if (not group and draw(st.booleans())) else ""
    return f"SELECT {distinct}{projection} FROM t{where}{group}"


def _normalized(rows):
    out = []
    for row in rows:
        normalized = []
        for value in normalize_row(tuple(row)):
            if isinstance(value, float):
                normalized.append(round(value, 6))
            else:
                normalized.append(value)
        out.append(tuple(normalized))
    return out


def _canon(rows):
    return sorted(_normalized(rows), key=repr)


@given(rows=_rows, query=_queries())
@settings(max_examples=250, deadline=None)
def test_engine_matches_sqlite(rows, query):
    ours, theirs = _build_pair(rows)
    try:
        our_rows = ours.query(query).rows
        their_rows = theirs.execute(query).fetchall()
        assert _canon(our_rows) == _canon(their_rows), query
    finally:
        theirs.close()


@given(rows=_rows)
@settings(max_examples=60, deadline=None)
def test_order_by_matches_sqlite(rows):
    ours, theirs = _build_pair(rows)
    query = "SELECT id FROM t WHERE qty IS NOT NULL ORDER BY qty DESC, id ASC"
    try:
        our_rows = ours.query(query).rows
        their_rows = [tuple(r) for r in theirs.execute(query).fetchall()]
        assert our_rows == their_rows
    finally:
        theirs.close()


@given(rows=_rows)
@settings(max_examples=60, deadline=None)
def test_set_operations_match_sqlite(rows):
    ours, theirs = _build_pair(rows)
    query = (
        "SELECT name FROM t WHERE qty > 0 "
        "UNION SELECT name FROM t WHERE grp = 'x'"
    )
    try:
        assert _canon(ours.query(query).rows) == _canon(
            theirs.execute(query).fetchall()
        )
    finally:
        theirs.close()


@pytest.mark.parametrize(
    "values",
    ["(1, 'a'), (2, 'b'), (1, 'c')", "(3, 'c'), (7, 'd'), (4, 'e')"],
    ids=["key repeated in the statement", "key already stored"],
)
def test_a_failing_multi_row_insert_leaves_the_table_as_sqlite_does(values):
    ddl = "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)"
    ours = Database.from_ddl("diff", ddl)
    theirs = sqlite3.connect(":memory:")
    try:
        theirs.execute(ddl)
        stored = "INSERT INTO t VALUES (7, 'x'), (5, 'y')"
        ours.execute(stored)
        theirs.execute(stored)
        statement = f"INSERT INTO t VALUES {values}"
        with pytest.raises(SqlError, match="UNIQUE constraint failed"):
            ours.execute(statement)
        with pytest.raises(sqlite3.IntegrityError):
            theirs.execute(statement)
        assert ours.data("t").rows == theirs.execute(
            "SELECT * FROM t ORDER BY rowid"
        ).fetchall() == [(5, "y"), (7, "x")]
    finally:
        theirs.close()


@pytest.fixture(scope="module")
def sweep_statements():
    """Each distinct (database, statement) ``Database.execute_ast`` runs
    while ``build_context("small", 20250325)`` renders the four artifacts."""
    seen: dict = {}
    execute_ast = Database.execute_ast

    def recording(database, statement):
        key = (id(database), print_query(statement))
        seen.setdefault(key, (database, statement))
        return execute_ast(database, statement)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Database, "execute_ast", recording)
        # An empty cache makes build_context generate the suites, so the
        # generator's gold and foil executions are recorded too.
        patch.setattr(harness, "_CONTEXT_CACHE", {})
        context = harness.build_context("small", 20250325)
        for run in (run_figure2, run_table2, run_figure8, run_table3):
            run(context)
    return list(seen.values())


def _sqlite_copy(database: Database) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.executescript(database.schema.ddl())
    for table in database.schema.tables:
        marks = ", ".join("?" * len(table.columns))
        connection.executemany(
            f"INSERT INTO {table.name} VALUES ({marks})",
            database.data(table.name).rows,
        )
    return connection


def test_every_sweep_statement_matches_sqlite(sweep_statements):
    connections: dict = {}
    mismatches = []
    ordered = 0
    try:
        for database, statement in sweep_statements:
            sql = print_query(statement)
            if id(database) not in connections:
                connections[id(database)] = _sqlite_copy(database)
            connection = connections[id(database)]
            ours = theirs = None
            try:
                ours = _normalized(database.execute_ast(statement).rows)
            except SqlError:
                pass
            try:
                theirs = _normalized(connection.execute(sql).fetchall())
            except sqlite3.Error:
                pass
            if ours is None or theirs is None:
                if (ours is None) != (theirs is None):
                    mismatches.append(("error on one engine", sql))
            elif query_is_ordered(statement):
                ordered += 1
                if ours != theirs:
                    mismatches.append(("order", sql))
            elif sorted(ours, key=repr) != sorted(theirs, key=repr):
                mismatches.append(("rows", sql))
    finally:
        for connection in connections.values():
            connection.close()
    assert not mismatches, mismatches[:10]
    # Guards against a collection that silently stopped recording.
    assert len(sweep_statements) > 100 and ordered > 0
