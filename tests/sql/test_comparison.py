"""Execution-accuracy comparison semantics."""

from repro.eval.metrics import execution_correct
from repro.sql.comparison import (
    normalize_row,
    query_is_ordered,
    result_fingerprint,
    results_match,
    rows_equal,
    summarize_result,
)
from repro.sql.engine import QueryResult
from repro.sql.parser import parse_query


def make(rows, columns=None):
    if columns is None:
        columns = [f"c{i}" for i in range(len(rows[0]) if rows else 0)]
    return QueryResult(columns=columns, rows=rows)


class TestRowsEqual:
    def test_null_matches_null(self):
        assert rows_equal((None, 1), (None, 1))

    def test_float_tolerance(self):
        assert rows_equal((1.0000001,), (1.0,))

    def test_width_mismatch(self):
        assert not rows_equal((1,), (1, 2))


class TestResultsMatch:
    def test_equal_unordered(self):
        a = make([(1,), (2,), (3,)])
        b = make([(3,), (1,), (2,)])
        assert results_match(a, b, ordered=False)
        assert not results_match(a, b, ordered=True)

    def test_multiset_semantics(self):
        a = make([(1,), (1,), (2,)])
        b = make([(1,), (2,), (2,)])
        assert not results_match(a, b, ordered=False)

    def test_column_names_ignored(self):
        a = QueryResult(columns=["x"], rows=[(1,)])
        b = QueryResult(columns=["y"], rows=[(1,)])
        assert results_match(a, b)

    def test_int_float_equivalence(self):
        a = make([(2,)])
        b = make([(2.0,)])
        assert results_match(a, b)

    def test_bool_int_equivalence(self):
        assert normalize_row((True, False)) == (1, 0)

    def test_row_count_mismatch(self):
        assert not results_match(make([(1,)]), make([(1,), (1,)]))

    def test_empty_results_match(self):
        assert results_match(make([]), make([]))

    def test_greedy_float_fallback(self):
        a = make([(1.0, "x"), (2.0, "y")])
        b = make([(2.0 + 1e-9, "y"), (1.0 - 1e-9, "x")])
        assert results_match(a, b, ordered=False)


class TestOrderedDetection:
    def test_select_with_order(self):
        assert query_is_ordered(parse_query("SELECT a FROM t ORDER BY a"))

    def test_select_without_order(self):
        assert not query_is_ordered(parse_query("SELECT a FROM t"))

    def test_set_operation(self):
        assert query_is_ordered(
            parse_query("SELECT a FROM t UNION SELECT a FROM u ORDER BY a")
        )


class TestExecutionMatch:
    def test_matching_queries(self, music_db):
        assert execution_correct(
            music_db,
            "SELECT Name FROM singer WHERE Age > 40",
            "SELECT Name FROM singer WHERE Age >= 41",
        )

    def test_mismatching_queries(self, music_db):
        assert not execution_correct(
            music_db,
            "SELECT Name FROM singer WHERE Age > 40",
            "SELECT Name FROM singer",
        )

    def test_predicted_parse_error_is_incorrect(self, music_db):
        assert not execution_correct(
            music_db, "SELECT COUNT(*) FROM singer", "SELEC oops"
        )

    def test_predicted_execution_error_is_incorrect(self, music_db):
        assert not execution_correct(
            music_db, "SELECT COUNT(*) FROM singer", "SELECT x FROM nothere"
        )

    def test_order_sensitive_when_gold_ordered(self, music_db):
        assert not execution_correct(
            music_db,
            "SELECT Name FROM singer ORDER BY Age",
            "SELECT Name FROM singer ORDER BY Age DESC",
        )


class TestHelpers:
    def test_summarize_empty(self):
        assert summarize_result(make([])) == "(no rows)"

    def test_summarize_truncates(self):
        result = make([(i,) for i in range(10)], columns=["n"])
        text = summarize_result(result, max_rows=3)
        assert "more rows" in text

    def test_fingerprint_order_insensitive(self):
        a = make([(1,), (2,)])
        b = make([(2,), (1,)])
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_fingerprint_error_sentinel(self):
        assert result_fingerprint(None) == ("<error>",)
