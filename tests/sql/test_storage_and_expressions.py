"""Storage-layer edge cases and expression evaluation semantics."""

import pytest

from repro import obs
from repro.errors import CatalogError, ExecutionError, SqlError
from repro.sql.engine import Database
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


@pytest.fixture()
def table_data():
    table = Table(
        "t",
        [
            Column("id", DataType.INTEGER, primary_key=True),
            Column("name", DataType.TEXT),
            Column("score", DataType.REAL),
        ],
    )
    return Database(DatabaseSchema("s", [table])).data("t")


class TestStorage:
    def test_insert_and_len(self, table_data):
        table_data.insert((1, "a", 0.5))
        assert len(table_data) == 1

    def test_insert_named_defaults_null(self, table_data):
        table_data.insert_named({"id": 1, "name": "a"})
        assert table_data.rows[0] == (1, "a", None)

    def test_insert_named_unknown_column(self, table_data):
        with pytest.raises(CatalogError):
            table_data.insert_named({"id": 1, "bogus": 2})

    def test_null_pk_allowed_but_not_duplicated(self):
        db = Database.from_ddl("s", "CREATE TABLE t (code TEXT PRIMARY KEY, n TEXT)")
        data = db.data("t")
        data.insert((None, "a"))
        data.insert((None, "b"))  # NULL PKs don't collide
        data.insert(("x", "c"))
        with pytest.raises(ExecutionError):
            data.insert(("x", "d"))

    def test_null_integer_pk_rejected(self, table_data):
        # SQLite would give a NULL INTEGER PRIMARY KEY a fresh rowid.
        with pytest.raises(ExecutionError):
            table_data.insert((None, "a", None))
        assert len(table_data) == 0

    def test_replace_rows_rebuilds_pk_index(self, table_data):
        db = Database(DatabaseSchema("s", [table_data.table]))
        data = db.data("t")
        data.insert((1, "a", None))
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("INSERT INTO t VALUES (2, 'b', NULL)")
        data.insert((1, "c", None))  # 1 is free again
        with pytest.raises(ExecutionError):
            data.insert((2, "dup", None))

    def test_replace_rows_detects_duplicates(self, table_data):
        db = Database(DatabaseSchema("s", [table_data.table]))
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        with pytest.raises(ExecutionError):
            db.execute("UPDATE t SET id = 1")
        # The failed statement left no row changed.
        assert db.data("t").rows == [(1, "a", None), (2, "b", None)]

    def test_column_index(self, table_data):
        assert table_data.column_index("SCORE") == 2
        with pytest.raises(CatalogError):
            table_data.column_index("nope")

    def test_rows_in_rowid_order(self):
        db = Database.from_ddl("s", "CREATE TABLE t (n TEXT)")
        db.execute("INSERT INTO t VALUES ('b'), ('c'), ('a')")
        assert db.data("t").rows == [("b",), ("c",), ("a",)]


#: A row stored before each bulk insert below.
_STORED = (100, "kept", 1.0)

#: Each way a row can fail, as the k-th row of a bulk insert.
_BAD_ROWS = {
    "wrong width": (9, "x"),
    "uncoercible value": (9, "x", "not a number"),
    "NULL INTEGER key": (None, "x", 1.0),
    "key repeated in the batch": (1, "again", 2.0),
    "key already stored": (100, "again", 2.0),
}


class TestBulkInsert:
    """``insert(*rows)`` checks each row as the one-row path does, then
    stores all its rows or none."""

    @staticmethod
    def _fresh(table_data):
        data = Database(DatabaseSchema("s", [table_data.table])).data("t")
        data.insert(_STORED)
        return data

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("cause", sorted(_BAD_ROWS))
    def test_a_bad_kth_row_raises_the_one_row_error_and_stores_none(
        self, table_data, cause, k
    ):
        rows = [(i, f"r{i}", float(i)) for i in range(1, 5)]
        rows.insert(k, _BAD_ROWS[cause])
        one_by_one = self._fresh(table_data)
        with pytest.raises(SqlError) as single:
            for row in rows:
                one_by_one.insert(row)
        assert len(one_by_one) == 1 + k  # the one-row path failed at row k
        bulk = self._fresh(table_data)
        with pytest.raises(type(single.value)) as batch:
            bulk.insert(*rows)
        assert str(batch.value) == str(single.value)
        assert bulk.rows == [_STORED]

    def test_a_bad_named_row_stores_none(self, table_data):
        with pytest.raises(CatalogError):
            table_data.insert_named({"id": 1}, {"id": 2, "bogus": 0})
        assert len(table_data) == 0

    def test_named_rows_map_onto_positions(self, table_data):
        assert table_data.insert_named({"score": 0.5, "id": 2}, {"ID": 1}) == 2
        assert table_data.rows == [(1, None, None), (2, None, 0.5)]

    def test_a_failing_multi_row_insert_statement_stores_none(self, table_data):
        db = Database(DatabaseSchema("s", [table_data.table]))
        with pytest.raises(ExecutionError, match="UNIQUE"):
            db.execute("INSERT INTO t VALUES (1, 'a', NULL), (1, 'b', NULL)")
        with pytest.raises(ExecutionError, match="column list"):
            db.execute("INSERT INTO t (id, name) VALUES (2, 'c'), (3)")
        assert db.data("t").rows == []
        result = db.execute("INSERT INTO t (name, id) VALUES ('c', 2), ('d', 3)")
        assert result.rows_affected == 2
        assert db.data("t").rows == [(2, "c", None), (3, "d", None)]

    def test_values_of_another_type_are_coerced(self, table_data):
        assert table_data.insert((1, "a", 2), ("2", 5, None), (False, "c", 1.5)) == 3
        assert table_data.rows == [(0, "c", 1.5), (1, "a", 2.0), (2, "5", None)]

    def test_no_rows_writes_nothing_and_keeps_the_memo(self):
        db = Database.from_ddl(
            "s", "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)"
        )
        db.execute("INSERT INTO t VALUES (1, 'a')")
        obs.enable(max_spans=0)
        try:
            db.query("SELECT name FROM t")
            assert db.data("t").insert() == 0
            assert db.load_rows("t", []) == 0
            db.query("SELECT name FROM t")
            metrics = obs.get_metrics()
            assert metrics.counter_value("sql.execute.misses") == 1
            assert metrics.counter_value("sql.storage.writes") == 0
        finally:
            obs.disable()

    def test_rows_keep_insertion_order(self):
        db = Database.from_ddl(
            "s",
            "CREATE TABLE t (n TEXT); CREATE TABLE k (id INTEGER PRIMARY KEY)",
        )
        db.data("t").insert(("b",), ("c",), ("a",))
        db.load_rows("t", [("e",), ("d",)])
        assert db.data("t").rows == [("b",), ("c",), ("a",), ("e",), ("d",)]
        # An INTEGER key is the rowid, so its rows come back in key order.
        db.data("k").insert((3,), (1,), (2,))
        assert db.data("k").rows == [(1,), (2,), (3,)]

    def test_each_write_counts_once_with_its_rows(self, table_data):
        obs.enable(max_spans=0)
        try:
            table_data.insert((1, "a", None), (2, "b", None), (3, "c", None))
            table_data.insert_named({"id": 4})
            with pytest.raises(ExecutionError):
                table_data.insert((5, "e", None), (5, "f", None))
            metrics = obs.get_metrics()
            assert metrics.counter_value("sql.storage.writes") == 2
            assert metrics.counter_value("sql.storage.rows") == 4
        finally:
            obs.disable()


class TestRowFrame:
    """Column resolution in joins and correlated subqueries."""

    @pytest.fixture()
    def db(self):
        db = Database.from_ddl(
            "frames",
            "CREATE TABLE t (a INTEGER, b INTEGER); CREATE TABLE u (a INTEGER);"
            "CREATE TABLE o (x INTEGER)",
        )
        db.execute("INSERT INTO t VALUES (1, 2)")
        db.execute("INSERT INTO u VALUES (3)")
        db.execute("INSERT INTO o VALUES (9)")
        return db

    def test_qualified_resolution(self, db):
        assert db.query("SELECT t.a, u.a FROM t CROSS JOIN u").rows == [(1, 3)]

    def test_unqualified_unique(self, db):
        assert db.query("SELECT b FROM t CROSS JOIN u").rows == [(2,)]

    def test_unqualified_ambiguous_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT a FROM t CROSS JOIN u")

    def test_outer_chain(self, db):
        rows = db.query(
            "SELECT (SELECT o.x + t.a FROM t), (SELECT x FROM t) FROM o"
        ).rows
        assert rows == [(10, 9)]

    def test_unknown_raises(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT zzz FROM t CROSS JOIN u")


class TestLikePatterns:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("a%", "apple", True),
            ("a%", "banana", False),
            ("%an%", "banana", True),
            ("_at", "cat", True),
            ("_at", "cart", False),
            ("100\\%", "100\\x", True),  # backslash is literal in our LIKE
            ("", "", True),
            ("%", "anything", True),
            ("A%", "apple", True),  # case-insensitive, SQLite-style
        ],
    )
    def test_patterns(self, pattern, text, expected):
        db = Database.from_ddl("like", "CREATE TABLE v (x TEXT)")
        db.load_rows("v", [(text,)])
        sql = f"SELECT COUNT(*) FROM v WHERE x LIKE '{pattern}'"
        assert db.query(sql).scalar() == int(expected)


class TestThreeValuedLogic:
    @pytest.fixture()
    def db(self):
        db = Database.from_ddl("nulls", "CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO t VALUES (1, NULL), (NULL, 2), (3, 4)")
        return db

    def test_and_with_null(self, db):
        # NULL AND FALSE is FALSE; NULL AND TRUE is UNKNOWN → filtered.
        rows = db.query("SELECT a FROM t WHERE a > 0 AND b > 0").rows
        assert rows == [(3,)]

    def test_or_with_null(self, db):
        # TRUE OR NULL is TRUE.
        rows = db.query("SELECT b FROM t WHERE b = 2 OR a > 99").rows
        assert rows == [(2,)]

    def test_not_null_is_null(self, db):
        rows = db.query("SELECT a FROM t WHERE NOT (b > 0)").rows
        assert rows == []  # rows with b NULL stay unknown under NOT too

    def test_arithmetic_with_null(self, db):
        rows = db.query("SELECT a + b FROM t").rows
        assert rows == [(7,), (None,), (None,)]  # canonical order: NULLs last

    def test_in_list_with_null_member(self, db):
        # 3 IN (4, NULL) is UNKNOWN, not FALSE → NOT IN also filters it.
        rows = db.query("SELECT a FROM t WHERE a NOT IN (4, NULL)").rows
        assert rows == []

    def test_coalesce_recovers(self, db):
        rows = db.query("SELECT COALESCE(a, 0) + COALESCE(b, 0) FROM t").rows
        assert rows == [(1,), (2,), (7,)]


class TestArithmetic:
    @pytest.fixture()
    def db(self):
        return Database.from_ddl("calc", "CREATE TABLE one (x INTEGER)")

    def test_integer_narrowing(self, db):
        assert db.query("SELECT 2 + 3").scalar() == 5
        assert isinstance(db.query("SELECT 2 + 3").scalar(), int)

    def test_division_is_float(self, db):
        # As in SQLite: float when an operand is float; integers truncate.
        assert db.query("SELECT 7.0 / 2").scalar() == pytest.approx(3.5)
        assert db.query("SELECT 7 / 2").scalar() == 3

    def test_modulo(self, db):
        assert db.query("SELECT 7 % 3").scalar() == 1

    def test_concat(self, db):
        assert db.query("SELECT 'a' || 'b'").scalar() == "ab"

    def test_concat_with_arithmetic_follows_the_tree(self, db):
        assert db.query("SELECT 2 * 3 || 'x'").scalar() == "6x"
        assert db.query("SELECT 1 + 2 || 'x'").scalar() == "3x"

    def test_unary_minus(self, db):
        assert db.query("SELECT -(2 + 3)").scalar() == -5

    def test_precedence(self, db):
        assert db.query("SELECT 2 + 3 * 4").scalar() == 14
        assert db.query("SELECT (2 + 3) * 4").scalar() == 20
