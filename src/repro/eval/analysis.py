"""Error analysis: the paper's §4.2 residual-failure breakdown, computed.

The paper attributes uncorrected instances to three causes:

(a) queries with multiple errors needing multiple feedback rounds,
(b) inability of the approach to interpret the user feedback, and
(c) user feedback misaligned with the required correction.

Given the correction outcomes and the error records, this module
reconstructs that attribution from observable evidence (round notes,
residual diffs), plus a per-trap-kind correction breakdown.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.session import CorrectionOutcome
from repro.datasets.base import Benchmark
from repro.errors import SqlError
from repro.eval.metrics import PredictionRecord
from repro.sql import ast
from repro.sql.edits import diff_queries
from repro.sql.parser import parse_query

CAUSE_MULTI_ERROR = "multiple_errors"
CAUSE_UNINTERPRETED = "feedback_not_interpreted"
CAUSE_MISALIGNED = "feedback_misaligned"
CAUSE_WRONG_EDIT = "edit_did_not_fix"
CAUSE_NO_FEEDBACK = "no_feedback_given"


@dataclass
class ErrorAnalysis:
    """Aggregated correction results with residual-cause attribution."""

    total: int = 0
    corrected: int = 0
    by_trap_kind: dict[str, tuple[int, int]] = field(default_factory=dict)
    residual_causes: Counter = field(default_factory=Counter)

    @property
    def corrected_percent(self) -> float:
        if not self.total:
            return 0.0
        return 100.0 * self.corrected / self.total

    def render(self) -> str:
        """Human-readable report in the spirit of the paper's §4.2 prose."""
        lines = [
            f"Corrected {self.corrected}/{self.total} "
            f"({self.corrected_percent:.1f}%)",
            "",
            "Per planted-difficulty kind (corrected/total):",
        ]
        for kind in sorted(self.by_trap_kind):
            fixed, total = self.by_trap_kind[kind]
            lines.append(f"  {kind:<20} {fixed}/{total}")
        lines.append("")
        lines.append("Residual failure causes:")
        for cause, count in self.residual_causes.most_common():
            lines.append(f"  {cause:<26} {count}")
        return "\n".join(lines)


def _residual_cause(
    record: PredictionRecord,
    outcome: CorrectionOutcome,
    benchmark: Benchmark,
) -> str:
    """Attribute one uncorrected instance to a residual cause."""
    if not outcome.rounds:
        return CAUSE_NO_FEEDBACK
    last = outcome.rounds[-1]
    unchanged = last.sql_after == last.sql_before
    if unchanged:
        # The model could not act on the feedback: either the feedback was
        # vacuous (misaligned user) or the phrasing fell outside the
        # demonstration coverage.
        if any("could not interpret" in note for note in last.notes):
            if _looks_misaligned(last.feedback_text):
                return CAUSE_MISALIGNED
            return CAUSE_UNINTERPRETED
        return CAUSE_UNINTERPRETED
    # An edit was applied but the query is still wrong: either there were
    # several errors (some remain) or the edit targeted the wrong thing.
    remaining = _remaining_errors(record, last.sql_after)
    if remaining is not None and remaining >= 2:
        return CAUSE_MULTI_ERROR
    if record.example.trap_kind == "multi":
        return CAUSE_MULTI_ERROR
    return CAUSE_WRONG_EDIT


def _looks_misaligned(feedback_text: str) -> bool:
    lowered = feedback_text.lower()
    return any(
        marker in lowered
        for marker in ("not what i asked", "look right", "seems off")
    )


def _remaining_errors(
    record: PredictionRecord, final_sql: str
) -> Optional[int]:
    try:
        gold = parse_query(record.example.gold_sql)
        pred = parse_query(final_sql)
    except SqlError:
        return None
    if not isinstance(gold, ast.Select) or not isinstance(pred, ast.Select):
        return None
    return len(diff_queries(gold, pred))


def analyze_corrections(
    records: Sequence[PredictionRecord],
    outcomes: Sequence[CorrectionOutcome],
    benchmark: Benchmark,
    within_rounds: int = 1,
) -> ErrorAnalysis:
    """Build the §4.2-style breakdown for one method's outcomes."""
    if len(records) != len(outcomes):
        raise ValueError("records and outcomes must align")
    analysis = ErrorAnalysis(total=len(records))
    per_kind_total: Counter = Counter()
    per_kind_fixed: Counter = Counter()
    for record, outcome in zip(records, outcomes):
        kind = record.example.trap_kind or "untrapped"
        per_kind_total[kind] += 1
        if outcome.corrected_by(within_rounds):
            analysis.corrected += 1
            per_kind_fixed[kind] += 1
        else:
            analysis.residual_causes[
                _residual_cause(record, outcome, benchmark)
            ] += 1
    analysis.by_trap_kind = {
        kind: (per_kind_fixed[kind], per_kind_total[kind])
        for kind in per_kind_total
    }
    return analysis
