"""Storage-layer edge cases and expression evaluation semantics."""

import pytest

from repro.errors import CatalogError, ExecutionError
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
