"""Simulated-annotator tests: protocol compliance, verbalization, noise."""

import sys
import threading
import time

import pytest

from repro.core import user
from repro.core.user import AnnotatorConfig, SimulatedAnnotator
from repro.sql.edits import diff_queries
from repro.sql.parser import parse_query


@pytest.fixture()
def annotator(aep_db):
    return SimulatedAnnotator(
        aep_db.schema,
        AnnotatorConfig(vague_rate=0.0, misaligned_rate=0.0),
    )


def feedback_for(annotator, gold_sql, pred_sql, question="q", example_id="e1",
                 use_highlights=False, round_index=1):
    return annotator.give_feedback(
        example_id=example_id,
        question=question,
        gold=parse_query(gold_sql),
        predicted=parse_query(pred_sql),
        round_index=round_index,
        use_highlights=use_highlights,
    )


class TestVerbalization:
    def test_year_feedback(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
            "'2024-01-01' AND createdtime < '2024-02-01'",
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
            "'2023-01-01' AND createdtime < '2023-02-01'",
        )
        assert fb.text == "we are in 2024"

    def test_remove_description_feedback(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT segmentname FROM hkg_dim_segment",
            "SELECT segmentname, description FROM hkg_dim_segment",
        )
        assert fb.text == "do not give descriptions"

    def test_column_edit_feedback(self, music_db):
        annotator = SimulatedAnnotator(
            music_db.schema, AnnotatorConfig(vague_rate=0, misaligned_rate=0)
        )
        fb = feedback_for(
            annotator,
            "SELECT Song_Name FROM singer WHERE Name = 'X'",
            "SELECT Name FROM singer WHERE Name = 'X'",
        )
        assert "song name" in fb.text
        assert "instead of" in fb.text

    def test_missing_filter_feedback(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT datasetname FROM hkg_dim_dataset WHERE status = 'active'",
            "SELECT datasetname FROM hkg_dim_dataset",
        )
        assert "'active'" in fb.text
        assert "status" in fb.text

    def test_fact_join_feedback(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT T2.destinationname FROM hkg_fact_activation AS T1 "
            "JOIN hkg_dim_destination AS T2 ON T1.destinationid = "
            "T2.destinationid JOIN hkg_dim_segment AS T3 "
            "ON T1.segmentid = T3.segmentid WHERE T3.segmentname = 'ABC'",
            "SELECT destinationname FROM hkg_dim_destination",
        )
        assert "activation" in fb.text

    def test_count_distinct_feedback(self, music_db):
        annotator = SimulatedAnnotator(
            music_db.schema, AnnotatorConfig(vague_rate=0, misaligned_rate=0)
        )
        fb = feedback_for(
            annotator,
            "SELECT COUNT(DISTINCT Country) FROM singer",
            "SELECT COUNT(Country) FROM singer",
        )
        assert "only once" in fb.text

    def test_order_add_feedback(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT segmentname FROM hkg_dim_segment ORDER BY segmentname ASC",
            "SELECT segmentname FROM hkg_dim_segment",
        )
        assert "ascending" in fb.text

    def test_satisfied_user_gives_none(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT COUNT(*) FROM hkg_dim_segment",
            "SELECT COUNT(*) FROM hkg_dim_segment",
        )
        assert fb is None

    def test_one_error_per_round(self, annotator):
        """Multi-error prediction: feedback addresses one delta only."""
        fb = feedback_for(
            annotator,
            "SELECT segmentname FROM hkg_dim_segment WHERE createdtime >= "
            "'2024-01-01' AND createdtime < '2024-02-01'",
            "SELECT segmentname, description FROM hkg_dim_segment WHERE "
            "createdtime >= '2023-01-01' AND createdtime < '2023-02-01'",
        )
        # select-kind delta outranks where-kind.
        assert fb.text == "do not give descriptions"


class TestAnnotatability:
    def test_correct_prediction_not_annotatable(self, annotator):
        assert not annotator.can_annotate(
            "e",
            parse_query("SELECT 1"),
            parse_query("SELECT 1"),
        )

    def test_too_many_errors_not_annotatable(self, annotator):
        gold = parse_query(
            "SELECT a, b FROM t WHERE c = 1 AND d = 2 ORDER BY a LIMIT 3"
        )
        pred = parse_query("SELECT x FROM u")
        assert not annotator.can_annotate("e", gold, pred)

    def test_annotate_rate_filters_deterministically(self, aep_db):
        config = AnnotatorConfig(annotate_rate=0.5)
        annotator = SimulatedAnnotator(aep_db.schema, config)
        gold = parse_query("SELECT segmentname FROM hkg_dim_segment")
        pred = parse_query("SELECT description FROM hkg_dim_segment")
        kept = [
            annotator.can_annotate(f"e{i}", gold, pred) for i in range(100)
        ]
        assert 25 <= sum(kept) <= 75
        assert kept == [
            annotator.can_annotate(f"e{i}", gold, pred) for i in range(100)
        ]


class TestNoise:
    def test_misaligned_rate(self, aep_db):
        config = AnnotatorConfig(vague_rate=0.0, misaligned_rate=1.0)
        annotator = SimulatedAnnotator(aep_db.schema, config)
        fb = feedback_for(
            annotator,
            "SELECT segmentname FROM hkg_dim_segment",
            "SELECT segmentname, description FROM hkg_dim_segment",
        )
        assert fb.intent_kind == "misaligned"

    def test_misaligned_is_sticky_across_rounds(self, aep_db):
        config = AnnotatorConfig(vague_rate=0.0, misaligned_rate=0.5)
        annotator = SimulatedAnnotator(aep_db.schema, config)
        gold = "SELECT segmentname FROM hkg_dim_segment"
        pred = "SELECT segmentname, description FROM hkg_dim_segment"
        for example_id in [f"e{i}" for i in range(30)]:
            r1 = feedback_for(
                annotator, gold, pred, example_id=example_id, round_index=1
            )
            r2 = feedback_for(
                annotator, gold, pred, example_id=example_id, round_index=2
            )
            assert (r1.intent_kind == "misaligned") == (
                r2.intent_kind == "misaligned"
            )

    def test_vague_year_feedback(self, aep_db):
        config = AnnotatorConfig(vague_rate=1.0, misaligned_rate=0.0)
        annotator = SimulatedAnnotator(aep_db.schema, config)
        fb = feedback_for(
            annotator,
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
            "'2024-01-01' AND createdtime < '2024-02-01'",
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
            "'2023-01-01' AND createdtime < '2023-02-01'",
        )
        assert fb.text == "change to 2024"

    def test_vague_filter_feedback(self, aep_db):
        config = AnnotatorConfig(vague_rate=1.0, misaligned_rate=0.0)
        annotator = SimulatedAnnotator(aep_db.schema, config)
        fb = feedback_for(
            annotator,
            "SELECT datasetname FROM hkg_dim_dataset WHERE status = 'active'",
            "SELECT datasetname FROM hkg_dim_dataset",
        )
        assert fb.text == "change to 'active'"


class TestHighlights:
    def test_highlight_attached_when_enabled(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
            "'2024-01-01' AND createdtime < '2024-02-01'",
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdtime >= "
            "'2023-01-01' AND createdtime < '2023-02-01'",
            use_highlights=True,
        )
        assert fb.highlight is not None
        assert "2023" in fb.highlight.text

    def test_highlight_for_missing_filter_marks_from_clause(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT datasetname FROM hkg_dim_dataset WHERE status = 'active'",
            "SELECT datasetname FROM hkg_dim_dataset",
            use_highlights=True,
        )
        assert fb.highlight is not None
        assert "FROM hkg_dim_dataset" in fb.highlight.text

    def test_no_highlight_when_disabled(self, annotator):
        fb = feedback_for(
            annotator,
            "SELECT datasetname FROM hkg_dim_dataset WHERE status = 'active'",
            "SELECT datasetname FROM hkg_dim_dataset",
            use_highlights=False,
        )
        assert fb.highlight is None


class TestDiffMemo:
    """Each annotator diffs each (gold, predicted) pair of trees once."""

    @pytest.fixture()
    def diffs(self, monkeypatch):
        calls: list[tuple] = []

        def counting(gold, predicted):
            calls.append((gold, predicted))
            return diff_queries(gold, predicted)

        monkeypatch.setattr(user, "diff_queries", counting)
        return calls

    def test_the_check_and_every_round_share_one_diff(self, annotator, diffs):
        gold = parse_query("SELECT segmentname FROM hkg_dim_segment")
        predicted = parse_query(
            "SELECT segmentname, description FROM hkg_dim_segment"
        )
        assert annotator.can_annotate("e1", gold, predicted)
        for use_highlights in (False, True):
            for round_index in (1, 2):
                feedback = annotator.give_feedback(
                    "e1", "q", gold, predicted, round_index, use_highlights
                )
                assert feedback.text == "do not give descriptions"
        assert diffs == [(gold, predicted)]

    def test_equal_trees_of_other_texts_are_diffed_apart(self, music_db, diffs):
        annotator = SimulatedAnnotator(
            music_db.schema, AnnotatorConfig(vague_rate=0, misaligned_rate=0)
        )
        gold = parse_query("SELECT Name FROM singer WHERE Age > 30")
        seven = parse_query("SELECT Name FROM singer WHERE Age > 7")
        seven_point_zero = parse_query("SELECT Name FROM singer WHERE Age > 7.0")
        # Literal(7) == Literal(7.0), but the highlight quotes each as printed.
        assert seven == seven_point_zero
        first = annotator.give_feedback("e1", "q", gold, seven, 1, True)
        second = annotator.give_feedback("e1", "q", gold, seven_point_zero, 1, True)
        assert first.highlight.text == "Age > 7"
        assert second.highlight.text == "Age > 7.0"
        assert len(diffs) == 2

    def test_threads_share_a_bounded_memo(self, annotator):
        gold = parse_query("SELECT segmentname FROM hkg_dim_segment")
        texts = [
            f"SELECT segmentname FROM hkg_dim_segment LIMIT {i}"
            for i in range(user.DIFF_MEMO_SIZE + 64)
        ]
        pairs = [(gold, parse_query(text)) for text in texts]
        expected = [tuple(diff_queries(g, p)) for g, p in pairs]
        problems: list[str] = []
        deadline = time.monotonic() + 30.0

        def worker(offset: int) -> None:
            for index in range(offset, offset + len(pairs)):
                if time.monotonic() > deadline:
                    return
                index %= len(pairs)
                if annotator._deltas(*pairs[index]) != expected[index]:
                    problems.append(f"wrong diff for pair {index}")
                if len(annotator._diffs) > user.DIFF_MEMO_SIZE:
                    problems.append(f"memo holds {len(annotator._diffs)} pairs")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k * 37,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not problems, problems[:5]
        assert len(annotator._diffs) == user.DIFF_MEMO_SIZE


S = "hkg_dim_segment"
ORDERED = f"SELECT segmentname FROM {S} ORDER BY profilecount"
FILTERED = f"SELECT segmentname FROM {S} WHERE status"
JOINED = (
    f"SELECT T1.segmentname FROM {S} AS T1 JOIN hkg_fact_activation AS T2 "
    "ON T1.segmentid = T2.segmentid"
)


class TestEveryOperation:
    """What the annotator says for each operation the diff returns, and
    which part of the prediction it highlights. Order, limit and DISTINCT
    read add or edit from the prediction; tables come before select items,
    and DISTINCT before LIMIT."""

    @pytest.mark.parametrize(
        "gold_sql, pred_sql, expected",
        [
            pytest.param(
                f"{ORDERED} DESC",
                f"SELECT segmentname FROM {S}",
                ("order the profile counts in descending order.", "order_add", None),
                id="order-add",
            ),
            pytest.param(
                f"{ORDERED} DESC",
                f"{ORDERED} ASC",
                ("sort in descending order, please", "order_edit", "profilecount"),
                id="order-edit",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S}",
                f"{ORDERED} DESC",
                ("no need to sort the results", "order_remove", "profilecount"),
                id="order-remove",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S} LIMIT 5",
                f"SELECT segmentname FROM {S}",
                ("limit it to 5", "limit", None),
                id="limit-add",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S} LIMIT 5",
                f"SELECT segmentname FROM {S} LIMIT 3",
                ("limit it to 5", "limit", None),
                id="limit-edit",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S}",
                f"SELECT segmentname FROM {S} LIMIT 3",
                ("remove the limit, show all of them", "limit_remove", None),
                id="limit-remove",
            ),
            pytest.param(
                f"SELECT DISTINCT status FROM {S}",
                f"SELECT status FROM {S}",
                ("remove duplicates from the results", "distinct_add", None),
                id="distinct-add",
            ),
            pytest.param(
                f"SELECT status FROM {S}",
                f"SELECT DISTINCT status FROM {S}",
                ("keep all rows, including duplicates", "distinct_remove", None),
                id="distinct-remove",
            ),
            pytest.param(
                f"SELECT DISTINCT status FROM {S} LIMIT 2",
                f"SELECT status FROM {S}",
                ("remove duplicates from the results", "distinct_add", None),
                id="distinct-before-limit",
            ),
            pytest.param(
                f"SELECT status, COUNT(*) FROM {S} GROUP BY status",
                f"SELECT status, COUNT(*) FROM {S}",
                ("break the numbers down by status", "group_add", None),
                id="group-add",
            ),
            pytest.param(
                f"SELECT COUNT(*) FROM {S}",
                f"SELECT COUNT(*) FROM {S} GROUP BY status",
                None,
                id="group-remove",
            ),
            pytest.param(
                f"SELECT segmentname, profilecount FROM {S}",
                f"SELECT segmentname FROM {S}",
                ("also show the profile count", "select_add", None),
                id="select-add",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S}",
                f"SELECT description FROM {S}",
                (
                    "provide the segment name instead of the description",
                    "select_edit",
                    "description",
                ),
                id="select-edit",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S}",
                f"{FILTERED} = 'active'",
                ("remove the condition on status", "filter_remove", "status = 'active'"),
                id="where-remove",
            ),
            pytest.param(
                f"{FILTERED} = 'active'",
                f"SELECT segmentname FROM {S}",
                ("that means the status is 'active'", "filter", f"FROM {S}"),
                id="where-add",
            ),
            pytest.param(
                f"{FILTERED} = 'active'",
                f"{FILTERED} = 'draft'",
                ("that means the status is 'active'", "filter", "status = 'draft'"),
                id="where-edit",
            ),
            pytest.param(
                f"SELECT COUNT(*) FROM {S}",
                "SELECT COUNT(*) FROM hkg_dim_dataset",
                ("by audiences I mean the segment table", "table_edit", None),
                id="table-edit",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S}",
                "SELECT datasetname FROM hkg_dim_dataset",
                ("by audiences I mean the segment table", "table_edit", None),
                id="table-before-select",
            ),
            pytest.param(
                f"SELECT segmentname FROM {S}", JOINED, None, id="table-remove"
            ),
        ],
    )
    def test_feedback_and_highlight(self, annotator, gold_sql, pred_sql, expected):
        feedback = feedback_for(
            annotator,
            gold_sql,
            pred_sql,
            question="how many audiences are there",
            use_highlights=True,
        )
        if expected is None:
            assert feedback is None
            return
        text, intent_kind, highlight = expected
        assert (feedback.text, feedback.intent_kind) == (text, intent_kind)
        assert (feedback.highlight and feedback.highlight.text) == highlight
