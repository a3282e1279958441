"""Query behaviour tests against the hand-built music database."""

import pytest

from repro.errors import ExecutionError, SqlError
from repro.sql.engine import Database


def rows(db, sql):
    return db.query(sql).rows


class TestProjection:
    def test_select_column(self, music_db):
        result = music_db.query("SELECT Name FROM singer WHERE singer_id = 1")
        assert result.rows == [("Joe Sharp",)]
        assert result.columns == ["Name"]

    def test_select_star_width(self, music_db):
        result = music_db.query("SELECT * FROM singer")
        assert len(result.rows[0]) == 5
        assert result.columns[0] == "singer_id"

    def test_qualified_star(self, music_db):
        result = music_db.query(
            "SELECT singer.* FROM singer JOIN song "
            "ON singer.singer_id = song.singer_id LIMIT 1"
        )
        assert len(result.rows[0]) == 5

    def test_expression_projection(self, music_db):
        result = music_db.query("SELECT Age + 10 FROM singer WHERE singer_id = 2")
        assert result.rows == [(42,)]

    def test_alias_in_output(self, music_db):
        result = music_db.query("SELECT COUNT(*) AS n FROM singer")
        assert result.columns == ["n"]

    def test_scalar_helper(self, music_db):
        assert music_db.query("SELECT COUNT(*) FROM singer").scalar() == 6

    def test_to_dicts(self, music_db):
        result = music_db.query("SELECT Name FROM singer WHERE singer_id = 1")
        dicts = [dict(zip(result.columns, row)) for row in result.rows]
        assert dicts == [{"Name": "Joe Sharp"}]


class TestWhere:
    def test_comparison(self, music_db):
        assert len(rows(music_db, "SELECT Name FROM singer WHERE Age > 40")) == 3

    def test_string_equality(self, music_db):
        assert len(
            rows(music_db, "SELECT Name FROM singer WHERE Country = 'France'")
        ) == 4

    def test_and_or(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE Country = 'France' AND Age < 30",
        )
        assert result == [("Justin Brown",), ("Tribal King",)][: len(result)]
        assert len(result) == 2

    def test_between(self, music_db):
        assert len(
            rows(music_db, "SELECT Name FROM singer WHERE Age BETWEEN 29 AND 43")
        ) == 4

    def test_like(self, music_db):
        # No ORDER BY: the facade returns rows in its canonical order.
        assert rows(
            music_db, "SELECT Name FROM singer WHERE Name LIKE 'J%'"
        ) == [("Joe Sharp",), ("John Nizinik",), ("Justin Brown",)]

    def test_like_case_insensitive(self, music_db):
        assert len(
            rows(music_db, "SELECT Name FROM singer WHERE Name LIKE 'joe%'")
        ) == 1

    def test_in_list(self, music_db):
        assert len(
            rows(
                music_db,
                "SELECT Name FROM singer WHERE Country IN ('France', 'Narnia')",
            )
        ) == 4

    def test_not_in_list(self, music_db):
        assert len(
            rows(music_db, "SELECT Name FROM singer WHERE Country NOT IN ('France')")
        ) == 2

    def test_is_null_on_populated(self, music_db):
        assert rows(music_db, "SELECT Name FROM singer WHERE Name IS NULL") == []

    def test_unknown_column_raises(self, music_db):
        with pytest.raises(SqlError):
            music_db.query("SELECT nope FROM singer")

    def test_null_comparison_filters_out(self, music_db):
        music_db.execute("INSERT INTO singer VALUES (7, 'Ghost', NULL, NULL, NULL)")
        assert ("Ghost",) not in rows(
            music_db, "SELECT Name FROM singer WHERE Age > 0"
        )
        assert ("Ghost",) not in rows(
            music_db, "SELECT Name FROM singer WHERE Age <= 0"
        )


class TestAggregates:
    def test_count_star(self, music_db):
        assert music_db.query("SELECT COUNT(*) FROM song").scalar() == 6

    def test_count_column_skips_null(self, music_db):
        music_db.execute("INSERT INTO singer VALUES (7, 'Ghost', NULL, NULL, NULL)")
        assert music_db.query("SELECT COUNT(Age) FROM singer").scalar() == 6
        assert music_db.query("SELECT COUNT(*) FROM singer").scalar() == 7

    def test_count_distinct(self, music_db):
        assert (
            music_db.query("SELECT COUNT(DISTINCT Country) FROM singer").scalar()
            == 3
        )

    def test_sum_avg_min_max(self, music_db):
        result = music_db.query(
            "SELECT SUM(Age), AVG(Age), MIN(Age), MAX(Age) FROM singer"
        )
        total, avg, low, high = result.rows[0]
        assert total == 222
        assert avg == pytest.approx(37.0)
        assert (low, high) == (25, 52)

    def test_sum_empty_is_null(self, music_db):
        assert (
            music_db.query("SELECT SUM(Age) FROM singer WHERE Age > 99").scalar()
            is None
        )

    def test_count_empty_is_zero(self, music_db):
        assert (
            music_db.query("SELECT COUNT(*) FROM singer WHERE Age > 99").scalar()
            == 0
        )

    def test_group_by(self, music_db):
        result = music_db.query(
            "SELECT Country, COUNT(*) FROM singer GROUP BY Country"
        )
        as_dict = dict(result.rows)
        assert as_dict == {"Netherlands": 1, "United States": 1, "France": 4}

    def test_having(self, music_db):
        result = music_db.query(
            "SELECT Country, COUNT(*) FROM singer GROUP BY Country "
            "HAVING COUNT(*) > 1"
        )
        assert result.rows == [("France", 4)]

    def test_aggregate_arithmetic(self, music_db):
        assert (
            music_db.query("SELECT MAX(Age) - MIN(Age) FROM singer").scalar() == 27
        )

    def test_aggregate_in_order_by(self, music_db):
        result = music_db.query(
            "SELECT Country FROM singer GROUP BY Country ORDER BY COUNT(*) DESC"
        )
        assert result.rows[0] == ("France",)

    def test_aggregate_outside_context_raises(self, music_db):
        with pytest.raises(ExecutionError):
            music_db.query("SELECT Name FROM singer WHERE COUNT(*) > 1")


class TestOrderLimit:
    def test_order_asc(self, music_db):
        result = rows(music_db, "SELECT Age FROM singer ORDER BY Age")
        assert result == sorted(result)

    def test_order_desc_limit(self, music_db):
        result = rows(music_db, "SELECT Age FROM singer ORDER BY Age DESC LIMIT 2")
        assert result == [(52,), (43,)]

    def test_order_by_position(self, music_db):
        result = rows(music_db, "SELECT Name, Age FROM singer ORDER BY 2 LIMIT 1")
        assert result == [("Tribal King", 25)]

    def test_order_by_alias(self, music_db):
        result = rows(
            music_db, "SELECT Age AS years FROM singer ORDER BY years DESC LIMIT 1"
        )
        assert result == [(52,)]

    def test_order_by_unselected_column(self, music_db):
        result = rows(music_db, "SELECT Name FROM singer ORDER BY Age LIMIT 1")
        assert result == [("Tribal King",)]

    def test_multi_key_order(self, music_db):
        result = rows(
            music_db, "SELECT Country, Name FROM singer ORDER BY Country, Name"
        )
        assert result[0][0] == "France"
        names_in_france = [n for c, n in result if c == "France"]
        assert names_in_france == sorted(names_in_france)

    def test_offset(self, music_db):
        result = rows(
            music_db, "SELECT Age FROM singer ORDER BY Age LIMIT 2 OFFSET 1"
        )
        assert result == [(29,), (32,)]

    def test_nulls_sort_first(self, music_db):
        music_db.execute("INSERT INTO singer VALUES (7, 'Ghost', NULL, NULL, NULL)")
        result = rows(music_db, "SELECT Age FROM singer ORDER BY Age LIMIT 1")
        assert result == [(None,)]


class TestJoins:
    def test_inner_join(self, music_db):
        result = rows(
            music_db,
            "SELECT T1.Title, T2.Name FROM song AS T1 JOIN singer AS T2 "
            "ON T1.singer_id = T2.singer_id WHERE T2.Age = 32",
        )
        assert sorted(result) == [
            ("Do They Know", "Timbaland"),
            ("The Way I Are", "Timbaland"),
        ]

    def test_left_join_keeps_unmatched(self, music_db):
        result = music_db.query(
            "SELECT T2.Name, T1.Title FROM singer AS T2 LEFT JOIN song AS T1 "
            "ON T1.singer_id = T2.singer_id"
        )
        joe = [row for row in result.rows if row[0] == "Joe Sharp"]
        assert joe == [("Joe Sharp", None)]

    def test_cross_join_size(self, music_db):
        result = music_db.query("SELECT 1 FROM singer CROSS JOIN song")
        assert len(result.rows) == 36

    def test_non_equi_join(self, music_db):
        result = music_db.query(
            "SELECT COUNT(*) FROM singer AS a JOIN singer AS b ON a.Age < b.Age"
        )
        assert result.scalar() == 15

    def test_join_group_count(self, music_db):
        result = music_db.query(
            "SELECT T2.Name, COUNT(*) FROM song AS T1 JOIN singer AS T2 "
            "ON T1.singer_id = T2.singer_id GROUP BY T2.Name"
        )
        as_dict = dict(result.rows)
        assert as_dict["Timbaland"] == 2

    def test_ambiguous_column_raises(self, music_db):
        with pytest.raises(ExecutionError):
            music_db.query(
                "SELECT singer_id FROM singer JOIN song "
                "ON singer.singer_id = song.singer_id"
            )


class TestSubqueries:
    def test_scalar_subquery(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE Age = (SELECT MIN(Age) FROM singer)",
        )
        assert result == [("Tribal King",)]

    def test_in_subquery(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE singer_id IN "
            "(SELECT singer_id FROM song WHERE Release_year > 2012)",
        )
        assert sorted(result) == [
            ("John Nizinik",),
            ("Justin Brown",),
            ("Tribal King",),
        ]

    def test_correlated_exists(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE EXISTS (SELECT 1 FROM song "
            "WHERE song.singer_id = singer.singer_id)",
        )
        assert len(result) == 5

    def test_not_exists(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE NOT EXISTS (SELECT 1 FROM song "
            "WHERE song.singer_id = singer.singer_id)",
        )
        assert result == [("Joe Sharp",)]

    def test_above_average(self, music_db):
        result = rows(
            music_db,
            "SELECT Title FROM song WHERE Sales > "
            "(SELECT AVG(Sales) FROM song)",
        )
        assert sorted(result) == [("Do They Know",), ("Sun",), ("The Way I Are",)]

    def test_scalar_subquery_multiple_rows_raises(self, music_db):
        # SQLite does not raise: the subquery yields its first row.
        result = rows(
            music_db, "SELECT Name FROM singer WHERE Age = (SELECT Age FROM singer)"
        )
        assert result == [("Joe Sharp",)]


class TestSetOperations:
    def test_union_dedupes(self, music_db):
        result = rows(
            music_db,
            "SELECT Country FROM singer UNION SELECT Country FROM singer",
        )
        assert len(result) == 3

    def test_union_all_keeps_duplicates(self, music_db):
        result = rows(
            music_db,
            "SELECT Country FROM singer UNION ALL SELECT Country FROM singer",
        )
        assert len(result) == 12

    def test_intersect(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE Age > 40 INTERSECT "
            "SELECT Name FROM singer WHERE Country = 'France'",
        )
        assert sorted(result) == [("John Nizinik",), ("Rose White",)]

    def test_except(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer EXCEPT "
            "SELECT Name FROM singer WHERE Country = 'France'",
        )
        assert sorted(result) == [("Joe Sharp",), ("Timbaland",)]

    def test_set_op_order_limit(self, music_db):
        result = rows(
            music_db,
            "SELECT Name FROM singer WHERE Age > 40 UNION "
            "SELECT Name FROM singer WHERE Age < 30 ORDER BY Name LIMIT 2",
        )
        assert result == [("Joe Sharp",), ("John Nizinik",)]

    def test_parenthesized_operand_keeps_its_order_and_limit(self):
        db = Database.from_ddl(
            "ops", "CREATE TABLE t (a INTEGER); CREATE TABLE u (a INTEGER)"
        )
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("INSERT INTO u VALUES (7), (8), (9)")
        result = db.query(
            "SELECT a FROM t UNION (SELECT a FROM u ORDER BY a DESC LIMIT 1)"
        )
        # sqlite3 answers the same for the operand written as a derived
        # table: ... UNION SELECT * FROM (SELECT a FROM u ORDER BY ...).
        assert sorted(result.rows) == [(1,), (2,), (3,), (9,)]

    def test_width_mismatch_raises(self, music_db):
        with pytest.raises(ExecutionError):
            music_db.query(
                "SELECT Name, Age FROM singer UNION SELECT Name FROM singer"
            )


class TestScalarFunctions:
    def test_lower_upper(self, music_db):
        result = music_db.query(
            "SELECT LOWER(Name), UPPER(Country) FROM singer WHERE singer_id = 1"
        )
        assert result.rows == [("joe sharp", "NETHERLANDS")]

    def test_length(self, music_db):
        assert music_db.query(
            "SELECT LENGTH(Name) FROM singer WHERE singer_id = 1"
        ).scalar() == 9

    def test_abs_round(self, music_db):
        assert music_db.query("SELECT ABS(-4)").scalar() == 4
        assert music_db.query("SELECT ROUND(3.567, 1)").scalar() == pytest.approx(3.6)

    def test_substr(self, music_db):
        assert music_db.query("SELECT SUBSTR('hello', 2, 3)").scalar() == "ell"

    def test_coalesce(self, music_db):
        assert music_db.query("SELECT COALESCE(NULL, NULL, 5)").scalar() == 5

    def test_unknown_function_raises(self, music_db):
        with pytest.raises(ExecutionError):
            music_db.query("SELECT FROBNICATE(1)")

    def test_division_by_zero_is_null(self, music_db):
        assert music_db.query("SELECT 1 / 0").scalar() is None

    def test_case_when(self, music_db):
        result = music_db.query(
            "SELECT CASE WHEN Age >= 40 THEN 'old' ELSE 'young' END "
            "FROM singer WHERE singer_id = 1"
        )
        assert result.rows == [("old",)]
