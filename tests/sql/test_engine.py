"""Database facade tests: DDL, DML, schema/storage behaviour, and the
sqlite3 connection underneath (threads, error mapping, result names)."""

import sqlite3
import sys
import threading

import pytest

from repro.errors import CatalogError, ExecutionError, SqlError, TypeMismatchError
from repro.eval.metrics import execution_correct
from repro.sql.engine import Database, DmlResult, _split_statements
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


@pytest.fixture()
def db():
    return Database.from_ddl(
        "shop",
        "CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT, price REAL)",
    )


class TestDdl:
    def test_create_table_registers_schema(self, db):
        table = db.schema.table("item")
        assert [c.name for c in table.columns] == ["id", "name", "price"]
        assert table.primary_key.name == "id"

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE item (x INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE item")
        assert not db.schema.has_table("item")

    def test_drop_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nothere")
        result = db.execute("DROP TABLE IF EXISTS nothere")
        assert isinstance(result, DmlResult)

    def test_from_ddl_multiple_statements(self):
        db = Database.from_ddl(
            "multi",
            "CREATE TABLE a (x INTEGER); CREATE TABLE b (y TEXT);",
        )
        assert db.schema.has_table("a") and db.schema.has_table("b")


class TestInsert:
    def test_insert_rows_affected(self, db):
        result = db.execute("INSERT INTO item VALUES (1, 'pen', 2.5), (2, 'ink', 8.0)")
        assert result.rows_affected == 2
        assert db.row_count("item") == 2

    def test_insert_with_column_list(self, db):
        db.execute("INSERT INTO item (id, name) VALUES (1, 'pen')")
        assert db.query("SELECT price FROM item").scalar() is None

    def test_insert_coerces_types(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 3)")
        value = db.query("SELECT price FROM item").scalar()
        assert isinstance(value, float)

    def test_duplicate_pk_rejected(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 1.0)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO item VALUES (1, 'dup', 1.0)")

    def test_wrong_width_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO item VALUES (1, 'pen')")

    def test_load_rows(self, db):
        count = db.load_rows("item", [(1, "a", 1.0), (2, "b", 2.0)])
        assert count == 2


class TestUpdateDelete:
    @pytest.fixture(autouse=True)
    def seed(self, db):
        db.execute(
            "INSERT INTO item VALUES (1, 'pen', 2.5), (2, 'ink', 8.0), (3, 'pad', 4.0)"
        )

    def test_update_with_where(self, db):
        result = db.execute("UPDATE item SET price = 9.0 WHERE name = 'ink'")
        assert result.rows_affected == 1
        assert db.query("SELECT price FROM item WHERE name = 'ink'").scalar() == 9.0

    def test_update_all(self, db):
        result = db.execute("UPDATE item SET price = price * 2")
        assert result.rows_affected == 3
        assert db.query("SELECT SUM(price) FROM item").scalar() == pytest.approx(29.0)

    def test_update_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("UPDATE item SET nope = 1")

    def test_delete_with_where(self, db):
        result = db.execute("DELETE FROM item WHERE price > 3")
        assert result.rows_affected == 2
        assert db.row_count("item") == 1

    def test_delete_all(self, db):
        db.execute("DELETE FROM item")
        assert db.row_count("item") == 0

    def test_query_on_dml_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("DELETE FROM item")


class TestResultOrder:
    def test_unordered_results_come_in_canonical_order(self, db):
        db.execute(
            "INSERT INTO item VALUES (3, 'pad', NULL), (1, 'pen', 2.5), (2, 'ink', 8.0)"
        )
        # The same rows in any insertion order give one order: row_sort_key.
        assert db.query("SELECT name, price FROM item").rows == [
            ("ink", 8.0),
            ("pad", None),
            ("pen", 2.5),
        ]
        assert db.query("SELECT price FROM item").rows == [(2.5,), (8.0,), (None,)]

    def test_top_level_order_by_is_kept(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 2.5), (2, 'ink', 8.0)")
        assert db.query("SELECT name FROM item ORDER BY price DESC").rows == [
            ("ink",),
            ("pen",),
        ]


class TestSqliteFacade:
    QUERIES = {
        "SELECT COUNT(*) FROM item": [(40,)],
        "SELECT name FROM item WHERE id = 7": [("n7",)],
        "SELECT SUM(price) FROM item WHERE id <= 4": [(10.0,)],
        "SELECT id FROM item ORDER BY price DESC LIMIT 2": [(40,), (39,)],
    }

    @staticmethod
    def _filled(name):
        db = Database.from_ddl(
            name, "CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT, price REAL)"
        )
        db.load_rows("item", [(i, f"n{i}", float(i)) for i in range(1, 41)])
        return db

    def _hammer(self, databases, threads=8, rounds=40):
        """``threads`` threads, more than this box has cores, query and
        insert at once; a statement run outside the lock would fail,
        return another statement's rows or lose a row."""
        barrier = threading.Barrier(threads)
        failures = []

        def work(index):
            db = databases[index % len(databases)]
            barrier.wait()
            try:
                for step in range(rounds):
                    for sql, expected in self.QUERIES.items():
                        assert db.query(sql).rows == expected, sql
                    with pytest.raises(CatalogError):
                        db.query("SELECT nope FROM item")
                    db.data("log").insert((index, step))
            except BaseException as exc:  # pragma: no cover - reported below
                failures.append(exc)

        for db in databases:
            db.execute("CREATE TABLE log (worker INTEGER, step INTEGER)")
        workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not failures, failures[:3]
        assert sum(db.row_count("log") for db in databases) == threads * rounds

    def test_eight_threads_query_one_database(self):
        self._hammer([self._filled("one")])

    def test_threads_query_several_databases_at_once(self):
        self._hammer([self._filled(f"db{i}") for i in range(4)])

    @pytest.mark.parametrize(
        "sql,error",
        [
            ("SELECT nope FROM item", CatalogError),
            ("SELECT FROBNICATE(1)", ExecutionError),
            ("SELECT NULLIF(1)", ExecutionError),
            ("SELECT name FROM item WHERE COUNT(*) > 1", ExecutionError),
            ("SELECT id, name FROM item UNION SELECT id FROM item", ExecutionError),
            ("SELECT a.id FROM item AS a JOIN item AS a ON 1 = 1", ExecutionError),
            ("SELECT 'a\x00b'", ExecutionError),
            ("SELECT '\ud800'", ExecutionError),
        ],
    )
    def test_every_sqlite_error_is_a_sql_error(self, db, sql, error):
        with pytest.raises(error) as raised:
            db.query(sql)
        assert isinstance(raised.value, SqlError)
        assert isinstance(raised.value.__cause__, (sqlite3.Error, ValueError))

    def test_a_prediction_that_fails_to_run_counts_as_wrong(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 2.5)")
        gold = "SELECT name FROM item"
        assert execution_correct(db, gold, "SELECT name FROM item")
        assert not execution_correct(db, gold, "SELECT FROBNICATE(name) FROM item")
        with pytest.raises(SqlError):
            execution_correct(db, "SELECT nope FROM item", gold)

    def test_duplicate_key_raises_execution_error(self, db):
        db.data("item").insert((1, "pen", 1.0))
        with pytest.raises(ExecutionError):
            db.data("item").insert((1, "dup", 1.0))
        with pytest.raises(ExecutionError):
            db.data("item").insert_named({"id": 1, "name": "dup"})
        assert db.data("item").rows == [(1, "pen", 1.0)]

    def test_insert_raises_type_mismatch_through_coerce(self, db):
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO item VALUES ('one', 'pen', 1.0)")
        with pytest.raises(TypeMismatchError):
            db.data("item").insert((1, "pen", "cheap"))
        with pytest.raises(ExecutionError):
            db.data("item").insert((2**70, "pen", 1.0))
        assert db.row_count("item") == 0

    def test_insert_evaluates_expressions(self, db):
        db.execute("INSERT INTO item VALUES (1 + 1, 'p' || 'en', -2.5 * 2)")
        assert db.data("item").rows == [(2, "pen", -5.0)]

    def test_result_column_names(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 2.5)")
        result = db.query(
            "SELECT NAME, name AS label, COUNT(*), T1.* FROM Item AS T1 GROUP BY id"
        )
        assert result.columns == ["NAME", "label", "COUNT(*)", "id", "name", "price"]
        derived = db.query("SELECT * FROM (SELECT Name AS Label FROM item) AS s")
        assert derived.columns == ["label"]
        union = db.query("SELECT name FROM item UNION SELECT price FROM item")
        assert union.columns == ["name"]


class TestSchemaApi:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("x", DataType.INTEGER), Column("X", DataType.TEXT)])

    def test_ddl_rendering(self, db):
        ddl = db.schema.ddl()
        assert "CREATE TABLE item" in ddl
        assert "id INTEGER PRIMARY KEY" in ddl

    def test_ddl_follows_create_and_drop_table(self, db):
        def rendered() -> str:
            return DatabaseSchema("fresh", db.schema.tables).ddl()

        assert db.schema.ddl() == rendered()
        db.execute("CREATE TABLE tag (id INTEGER PRIMARY KEY, label TEXT)")
        assert "CREATE TABLE tag" in db.schema.ddl()
        assert db.schema.ddl() == rendered()
        db.execute("DROP TABLE item")
        assert "CREATE TABLE item" not in db.schema.ddl()
        assert db.schema.ddl() == rendered()

    def test_nl_name_defaults(self):
        column = Column("Song_release_year", DataType.INTEGER)
        assert column.nl_name == "song release year"


class TestSplitStatements:
    def test_semicolon_in_string_not_split(self):
        parts = _split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1")
        assert len(parts) == 2
        assert "a;b" in parts[0]

    def test_escaped_quote_in_string(self):
        parts = _split_statements("INSERT INTO t VALUES ('it''s; fine')")
        assert len(parts) == 1

    def test_empty_statements_dropped(self):
        assert _split_statements(";;  ;") == []
