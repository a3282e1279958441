"""The serve ladder's pass rule and the parent/change verdict."""

from __future__ import annotations

import math

from benchmarks.fisqlbench.stats import (
    LadderStep,
    max_rate,
    percentile,
    verdict,
)


def step(rate, turns, attempted=100, failed=0, late=0.0):
    return LadderStep(rate, tuple(turns), attempted, failed, late)


def test_percentile_is_nearest_rank_and_keeps_misses():
    assert percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
    assert percentile(list(range(1, 11)), 0.9) == 9
    assert percentile([1.0] * 9 + [math.inf], 0.9) == 1.0
    assert percentile([1.0] * 8 + [math.inf] * 2, 0.9) == math.inf


def test_ladder_step_passes_within_every_limit():
    assert step(8, [100.0] * 90 + [499.0] * 10).passed


def test_ladder_step_fails_on_tail_latency():
    assert not step(8, [100.0] * 85 + [501.0] * 15).passed


def test_failed_turns_count_as_misses():
    turns = [100.0] * 85 + [math.inf] * 15
    assert not step(8, turns, failed=1).passed


def test_ladder_step_fails_past_one_percent_failures():
    assert step(8, [10.0] * 10, attempted=100, failed=1).passed
    assert not step(8, [10.0] * 10, attempted=100, failed=2).passed


def test_ladder_step_fails_when_the_generator_falls_behind():
    assert not step(8, [10.0] * 10, late=501.0).passed


def test_max_rate_stops_at_the_first_failing_step():
    ok, bad = [10.0] * 10, [900.0] * 10
    assert max_rate([step(8, ok), step(16, ok), step(32, bad), step(64, ok)]) == 16
    assert max_rate([step(8, bad)]) == 0.0


def test_verdict_gain_regression_and_unresolved():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [80.0 + i % 3 for i in range(10)]
    assert verdict(parent, faster, "lower", 0.1)[0] == "gain"
    slower = [120.0 + i % 3 for i in range(10)]
    assert verdict(parent, slower, "lower", 0.1)[0] == "regression"
    noisy = [100.0, 150.0, 60.0, 140.0, 70.0, 100.0, 150.0, 60.0, 140.0, 70.0]
    assert verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, parent, "lower", 0.1)[0] == "no regression"
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.0)[0] == "no regression"
    assert verdict([1.0] * 10, [0.9] * 10, "higher", 0.0)[0] == "regression"


def test_regressions_are_not_hidden_by_spread():
    # Failures in half the change's runs: the spread exceeds the zero
    # bound, but the worsening is plain.
    assert verdict([0.0] * 10, [0.0] * 5 + [0.1] * 5, "lower", 0.0)[0] == "regression"
    # Capacity halved in half the runs, against a parent that already varies.
    parent = [16.0] * 8 + [8.0] * 2
    assert verdict(parent, [16.0, 8.0] * 5, "higher", 0.0)[0] == "regression"
    assert verdict(parent, [16.0] * 7 + [8.0] * 3, "higher", 0.0)[0] == "regression"
    # The same runs again are no worse, but a spread beyond a zero bound
    # still cannot be called unchanged.
    assert verdict(parent, list(parent), "higher", 0.0)[0] == "unresolved"
    # A noisy change, 30% slower at the median, is a regression, not unresolved.
    noisy = [130.0, 150.0, 110.0, 140.0, 120.0] * 2
    assert verdict([100.0 + i % 3 for i in range(10)], noisy, "lower", 0.1)[0] == (
        "regression"
    )


def test_noisy_clear_losses_and_wins():
    parent = [60.0, 70.0, 100.0, 110.0, 120.0] * 2  # spread 0.45
    slower = [121.0, 124.0, 122.0, 123.0, 125.0] * 2  # median within 25%
    assert verdict(parent, slower, "lower", 0.25)[0] == "worse"
    faster = [50.0, 52.0, 54.0, 56.0, 58.0]
    assert verdict(parent, faster, "lower", 0.25)[0] == "better"


def test_gain_is_refused_when_more_operations_fail():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [80.0 + i % 3 for i in range(10)]
    assert verdict(parent, faster, "lower", 0.1, more_failures=True)[0] == (
        "no gain: more failures"
    )
