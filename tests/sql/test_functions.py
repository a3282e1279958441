"""Aggregate and scalar functions, through :meth:`Database.query`."""

import pytest

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.engine import Database


def _values(values, dtype="TEXT"):
    """A one-column table ``v`` holding ``values`` (NULL for None)."""
    db = Database.from_ddl("fn", f"CREATE TABLE v (x {dtype})")
    db.load_rows("v", [(value,) for value in values])
    return db


def _scalar(sql, db=None):
    return (db or _values([])).query(sql).scalar()


class TestCount:
    def test_counts_non_null(self):
        assert _scalar("SELECT COUNT(x) FROM v", _values(["1", None, "x", None])) == 2

    def test_distinct(self):
        db = _values(["a", "a", "b", None])
        assert _scalar("SELECT COUNT(DISTINCT x) FROM v", db) == 2

    def test_empty_is_zero(self):
        assert _scalar("SELECT COUNT(x) FROM v") == 0


class TestSum:
    def test_int_sum_stays_int(self):
        total = _scalar("SELECT SUM(x) FROM v", _values([1, 2, 3], "INTEGER"))
        assert total == 6
        assert isinstance(total, int)

    def test_mixed_sum_is_float(self):
        db = _values([1, 2.5], "REAL")
        assert _scalar("SELECT SUM(x) FROM v", db) == pytest.approx(3.5)

    def test_empty_is_null(self):
        assert _scalar("SELECT SUM(x) FROM v", _values([], "INTEGER")) is None

    def test_distinct(self):
        db = _values([2, 2, 3], "INTEGER")
        assert _scalar("SELECT SUM(DISTINCT x) FROM v", db) == 5

    def test_non_numeric_raises(self):
        # SQLite's SUM reads a non-numeric string as 0 instead of raising.
        assert _scalar("SELECT SUM(x) FROM v", _values(["abc"])) == 0.0


class TestAvgMinMax:
    def test_avg(self):
        db = _values([2, 4, None], "INTEGER")
        assert _scalar("SELECT AVG(x) FROM v", db) == 3.0

    def test_avg_empty_is_null(self):
        assert _scalar("SELECT AVG(x) FROM v", _values([], "INTEGER")) is None
        assert _scalar("SELECT AVG(x) FROM v", _values([None], "INTEGER")) is None

    def test_min_max_strings(self):
        db = _values(["pear", "apple", "plum", None])
        assert db.query("SELECT MIN(x), MAX(x) FROM v").rows == [("apple", "plum")]

    def test_min_max_dates(self):
        db = _values(["2024-01-15", "2023-12-31", "2024-02-01"], "DATE")
        assert db.query("SELECT MIN(x), MAX(x) FROM v").rows == [
            ("2023-12-31", "2024-02-01")
        ]


class TestScalarRegistry:
    def test_all_aggregates_registered(self):
        assert ast.AGGREGATE_FUNCTIONS == {"COUNT", "SUM", "AVG", "MIN", "MAX"}
        db = _values([1, 2], "INTEGER")
        for name in sorted(ast.AGGREGATE_FUNCTIONS):
            assert _scalar(f"SELECT {name}(x) FROM v", db) is not None

    def test_substr_one_based(self):
        assert _scalar("SELECT SUBSTR('hello', 1, 2)") == "he"

    def test_substr_null_propagates(self):
        assert _scalar("SELECT SUBSTR(NULL, 1, 2)") is None

    def test_round_default_digits(self):
        assert _scalar("SELECT ROUND(2.6)") == 3

    def test_trim(self):
        assert _scalar("SELECT TRIM('  x  ')") == "x"

    def test_nullif(self):
        assert _scalar("SELECT NULLIF(1, 1)") is None
        assert _scalar("SELECT NULLIF(1, 2)") == 1

    def test_nullif_arity(self):
        with pytest.raises(ExecutionError):
            _scalar("SELECT NULLIF(1)")

    def test_ifnull_alias(self):
        assert _scalar("SELECT IFNULL(NULL, 7)") == 7
