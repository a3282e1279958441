"""Percentiles, the serve ladder's pass rule, and the parent/change verdict."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: The serve's own default latency objective (``SloPolicy.latency_ms``),
#: pinned here so the benchmark's rule does not move with the program.
SLO_MS = 500.0
#: A ladder step fails past 1% failed requests...
MAX_FAILURE_SHARE = 0.01
#: ...or when the generator is this far behind schedule as the step ends.
MAX_LATE_MS = 500.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); NaN for no values.

    Nearest rank never interpolates, so a failed request recorded as
    ``inf`` stays a miss rather than turning the result into NaN.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else math.inf


@dataclass(frozen=True)
class LadderStep:
    """What one fixed-rate step of the serve ladder measured."""

    rate: float
    turn_ms: tuple  # per ask/feedback turn; inf for a failed turn
    attempted: int
    failed: int
    late_at_end_ms: float

    @property
    def turn_p90_ms(self) -> float:
        return percentile(self.turn_ms, 0.90)

    @property
    def passed(self) -> bool:
        return (
            self.attempted > 0
            and self.turn_p90_ms <= SLO_MS
            and self.failed <= MAX_FAILURE_SHARE * self.attempted
            and self.late_at_end_ms <= MAX_LATE_MS
        )


def max_rate(steps: Sequence[LadderStep]) -> float:
    """Highest rate passed before the first failing step (0 if none)."""
    best = 0.0
    for step in steps:
        if not step.passed:
            break
        best = step.rate
    return best


# -- parent vs change -------------------------------------------------------------

#: Fewest alternating parent/change pairs a verdict may rest on.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


#: Verdicts that make ``compare`` fail.
FAILING = ("regression", "worse")


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    more_failures: bool = False,
) -> tuple[str, int, int]:
    """Judge one (workload, metric): (verdict, pairs won, pairs).

    Runs pair up in the order they were made. The checks run in order:

    - *regression*: the change's median is worse than the parent's by
      more than ``bound`` (a share of the parent's median). With a zero
      bound any worsening counts, so the change's mean is compared too:
      one more failed run, or one more lost ladder step, is a regression.
    - *gain*: at least :data:`MIN_PAIRS` pairs, the change winning
      :data:`WIN_SHARE` of them (ties count for neither side), and the
      medians differing by more than the parent's interquartile range.
      ``more_failures`` (the change failed more operations than the
      parent) refuses the gain.
    - when either side's spread exceeds the bound, "no regression" cannot
      be claimed: the metric is *better* if every change run beats every
      parent run, *worse* if every change run loses to every parent run,
      and *unresolved* otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    if pairs == 0:
        return "no data", 0, 0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - parent_median)
    if -gain > bound * abs(parent_median):
        return "regression", wins, pairs
    if bound == 0 and sign * (statistics.fmean(change) - statistics.fmean(parent)) < 0:
        return "regression", wins, pairs
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > q3 - q1:
        return ("no gain: more failures" if more_failures else "gain"), wins, pairs
    if max(spread(parent), spread(change)) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better", wins, pairs
        if max(sign * c for c in change) < min(sign * p for p in parent):
            return "worse", wins, pairs
        return "unresolved", wins, pairs
    if pairs < MIN_PAIRS:
        return "too few pairs", wins, pairs
    return "no regression", wins, pairs
