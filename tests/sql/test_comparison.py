"""Execution-accuracy comparison semantics."""

import math
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import obs
from repro.eval.metrics import execution_correct
from repro.sql.comparison import (
    normalize_row,
    query_is_ordered,
    result_fingerprint,
    results_match,
    rows_equal,
    summarize_result,
)
from repro.sql.engine import Database, QueryResult
from repro.sql.parser import parse_query
from repro.sql.types import values_equal


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


# -- equal row lists skip the sort --------------------------------------------

INF = float("inf")


def _reference_values_equal(left, right, float_tol=1e-6):
    if left is None and right is None:
        return True
    if left is None or right is None:
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        left_n, right_n = float(left), float(right)
        # Equal numbers are equal: ``inf - inf`` is NaN, which no
        # tolerance accepts. An infinite number equals only itself.
        if left_n == right_n:
            return True
        if math.isinf(left_n) or math.isinf(right_n):
            return False
        return abs(left_n - right_n) <= float_tol * max(
            1.0, abs(left_n), abs(right_n)
        )
    return str(left) == str(right)


def _reference_rows_equal(left, right):
    return len(left) == len(right) and all(
        _reference_values_equal(lv, rv) for lv, rv in zip(left, right)
    )


def _reference_normalize(row):
    out = []
    for value in row:
        if isinstance(value, bool):
            out.append(int(value))
        elif isinstance(value, float) and value.is_integer():
            out.append(int(value))
        else:
            out.append(value)
    return tuple(out)


def _reference_sort_key(row):
    return tuple(
        (value is None, isinstance(value, str), str(value)) for value in row
    )


def _reference_results_match(gold, predicted, ordered):
    """``results_match`` as it was before equal lists skipped the sort."""
    if len(gold) != len(predicted):
        return False
    if gold and predicted and len(gold[0]) != len(predicted[0]):
        return False
    if ordered:
        return all(_reference_rows_equal(g, p) for g, p in zip(gold, predicted))
    gold_sorted = sorted(map(_reference_normalize, gold), key=_reference_sort_key)
    pred_sorted = sorted(
        map(_reference_normalize, predicted), key=_reference_sort_key
    )
    if gold_sorted == pred_sorted:
        return True
    remaining = list(predicted)
    for gold_row in gold:
        for index, pred_row in enumerate(remaining):
            if _reference_rows_equal(gold_row, pred_row):
                remaining.pop(index)
                break
        else:
            return False
    return not remaining


#: Every kind of value the engine returns, drawn from small pools so that
#: rows collide, repeat and tie often.
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.5, -2.25, 1e-7, 1.0000001, 2.0000000001]),
    st.sampled_from([0.0, -0.0, INF, -INF]),
    st.text(alphabet="ab1 ", max_size=2),
    st.binary(max_size=2),
)


def _retyped(value):
    """An ``==``-equal value of another type, where one exists."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and abs(value) < 2**53:
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@st.composite
def _row_list_pairs(draw):
    width = draw(st.integers(1, 3))
    gold = draw(st.lists(st.tuples(*[_values] * width), max_size=6))
    kind = draw(
        st.sampled_from(["same", "copy", "retyped", "permuted", "perturbed"])
    )
    if kind == "same":
        predicted = list(gold)
    elif kind == "copy":
        predicted = [tuple(row) for row in gold]
    elif kind == "retyped":
        predicted = [tuple(_retyped(value) for value in row) for row in gold]
    elif kind == "permuted":
        predicted = list(gold)
        random.Random(draw(st.integers(0, 2**16))).shuffle(predicted)
    else:
        predicted = [list(row) for row in gold]
        if predicted:
            row = draw(st.integers(0, len(predicted) - 1))
            column = draw(st.integers(0, width - 1))
            predicted[row][column] = draw(_values)
        predicted = [tuple(row) for row in predicted]
    return gold, predicted


class TestEqualRowsSkipTheSort:
    @given(_row_list_pairs())
    @settings(max_examples=400, deadline=None)
    def test_verdicts_equal_the_sorting_comparison(self, pair):
        gold, predicted = pair
        for ordered in (False, True):
            expected = _reference_results_match(gold, predicted, ordered)
            assert results_match(make(gold), make(predicted), ordered) == expected
            assert results_match(make(predicted), make(gold), ordered) == (
                _reference_results_match(predicted, gold, ordered)
            )

    def test_each_comparison_counts_once(self):
        obs.enable(max_spans=0)
        try:
            rows = [(1, "a"), (2, None)]
            assert results_match(make(rows), make(list(rows)))
            assert results_match(make(rows), make(rows[::-1]))
            assert not results_match(make(rows), make(rows[:1]))
            assert results_match(make(rows), make(list(rows)), ordered=True)
            counted = {
                name: obs.get_metrics().counter_total(f"sql.compare.{name}")
                for name in ("calls", "equal", "sorted")
            }
        finally:
            obs.disable()
        assert counted == {"calls": 4, "equal": 1, "sorted": 1}


class TestInfiniteValues:
    ROWS = [(1, INF), (2, -INF), (3, None), (4, 0.5)]

    def test_ordered_and_unordered_paths_agree(self):
        # New float objects, so no comparison rests on identity.
        rebuilt = [(i, None if x is None else float(repr(x))) for i, x in self.ROWS]
        for predicted in (self.ROWS, list(self.ROWS), rebuilt):
            for ordered in (False, True):
                assert results_match(make(self.ROWS), make(predicted), ordered)
        # Within the tolerance elsewhere in the row, both paths fall back to
        # value-by-value matching and still accept the infinities.
        near = [(i, x) if i != 4 else (4, 0.5 + 1e-9) for i, x in self.ROWS]
        for ordered in (False, True):
            assert results_match(make(self.ROWS), make(near), ordered)
        assert rows_equal((INF, -INF), (INF, -INF))

    def test_an_infinite_value_matches_only_itself(self):
        assert not values_equal(INF, 5.0) and not values_equal(-INF, INF)
        for ordered in (False, True):
            for other in ([(5.0,)], [(-INF,)]):
                assert not results_match(make([(INF,)]), make(other), ordered)
                assert not results_match(make(other), make([(INF,)]), ordered)
            assert results_match(make([(INF,)]), make([(INF,)]), ordered)
            assert results_match(make([(INF,)]), make([(float("1e999"),)]), ordered)

    def test_an_ordered_query_over_infinities_matches_itself(self):
        database = Database.from_ddl("inf", "CREATE TABLE t (id INTEGER, x REAL)")
        for row in self.ROWS:
            database.data("t").insert(row)
        ordered = "SELECT id, x FROM t ORDER BY id"
        assert database.query(ordered).rows == self.ROWS
        assert execution_correct(database, ordered, ordered)
        assert execution_correct(database, "SELECT x FROM t", "SELECT x FROM t")
        assert not execution_correct(
            database, ordered, "SELECT id, x FROM t ORDER BY id DESC"
        )
