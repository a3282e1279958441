"""Retry/backoff, deadline budget, and circuit-breaker tests (virtual time)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import CircuitOpenError, LLMError, TransientLLMError
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResilientChatModel,
    RetryPolicy,
    VirtualClock,
)

from tests.resilience.conftest import ScriptedLLM, StubLLM, make_prompt

SQL = "SELECT name FROM singer"


def _backoff_summary() -> dict:
    """The ``llm.retry_backoff_ms`` series summary of the live registry."""
    return obs.find_histogram(
        obs.get_metrics().snapshot()["histograms"], "llm.retry_backoff_ms"
    )


def resilient(inner, retry=None, breaker=None, clock=None):
    clock = clock or VirtualClock()
    return ResilientChatModel(
        inner,
        retry=retry or RetryPolicy(),
        breaker=breaker,
        clock=clock.now,
        sleep=clock.sleep,
    )


class TestVirtualClock:
    def test_sleep_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.sleep(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.sleep(-1)

    def test_tick_advances_per_reading(self):
        clock = VirtualClock(tick=0.001)
        assert clock.now() == 0.0
        assert clock.now() == pytest.approx(0.001)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_ms=0)

    def test_backoff_exponential_within_jitter_and_cap(self):
        policy = RetryPolicy(
            base_backoff_ms=100, max_backoff_ms=350, jitter=0.1
        )
        for retry_index, raw in ((1, 100.0), (2, 200.0), (3, 350.0)):
            wait = policy.backoff_ms(retry_index, sequence=retry_index)
            assert raw * 0.9 <= wait <= raw * 1.1

    def test_backoff_deterministic_per_seed(self):
        a = RetryPolicy(seed=5)
        b = RetryPolicy(seed=5)
        c = RetryPolicy(seed=6)
        waits_a = [a.backoff_ms(1, s) for s in range(10)]
        waits_b = [b.backoff_ms(1, s) for s in range(10)]
        waits_c = [c.backoff_ms(1, s) for s in range(10)]
        assert waits_a == waits_b
        assert waits_a != waits_c


class TestRetry:
    def test_transient_failures_absorbed(self):
        inner = ScriptedLLM([TransientLLMError, TransientLLMError, SQL])
        clock = VirtualClock()
        model = resilient(inner, retry=RetryPolicy(max_retries=2), clock=clock)
        completion = model.complete(make_prompt())
        assert completion.text == SQL
        assert inner.calls == 3
        assert model.retries == 2
        assert model.giveups == 0
        assert clock.now() > 0.0  # backoff consumed virtual time

    def test_gives_up_after_max_retries(self):
        inner = ScriptedLLM([TransientLLMError] * 3)
        model = resilient(inner, retry=RetryPolicy(max_retries=2))
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        assert inner.calls == 3
        assert model.giveups == 1

    def test_zero_retries_disables_retry(self):
        inner = ScriptedLLM([TransientLLMError])
        model = resilient(inner, retry=RetryPolicy(max_retries=0))
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        assert inner.calls == 1

    def test_non_transient_llm_error_not_retried(self):
        inner = ScriptedLLM([LLMError])
        model = resilient(inner, retry=RetryPolicy(max_retries=5))
        with pytest.raises(LLMError):
            model.complete(make_prompt())
        assert inner.calls == 1
        assert model.retries == 0

    def test_deadline_budget_stops_retrying(self):
        inner = ScriptedLLM([TransientLLMError] * 10)
        clock = VirtualClock()
        model = resilient(
            inner,
            retry=RetryPolicy(
                max_retries=10, base_backoff_ms=50, deadline_ms=60
            ),
            clock=clock,
        )
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        # Far fewer than 10 retries: the 60 ms budget ran out first, and
        # backoff waits were clipped so the clock never overshot it much.
        assert inner.calls < 5
        assert model.giveups == 1
        assert clock.now() * 1000.0 <= 60 + 1e-6

    def test_retry_metrics_emitted(self):
        obs.enable()
        inner = ScriptedLLM([TransientLLMError, SQL, TransientLLMError, TransientLLMError])
        model = resilient(inner, retry=RetryPolicy(max_retries=1))
        model.complete(make_prompt())
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        metrics = obs.get_metrics()
        assert metrics.counter_total("llm.retries") == 2
        assert metrics.counter_value("llm.giveups", reason="retries_exhausted") == 1
        assert _backoff_summary()["count"] == 2


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_ms=0)

    def test_opens_after_threshold_and_fails_fast(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after_ms=100, clock=clock.now
        )
        inner = ScriptedLLM([TransientLLMError, TransientLLMError])
        model = resilient(
            inner, retry=RetryPolicy(max_retries=0), breaker=breaker,
            clock=clock,
        )
        for _ in range(2):
            with pytest.raises(TransientLLMError):
                model.complete(make_prompt())
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(CircuitOpenError):
            model.complete(make_prompt())
        assert model.rejections == 1
        assert inner.calls == 2  # the rejected call never reached the backend

    def test_half_open_probe_closes_on_success(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100, clock=clock.now
        )
        inner = ScriptedLLM([TransientLLMError, SQL])
        model = resilient(
            inner, retry=RetryPolicy(max_retries=0), breaker=breaker,
            clock=clock,
        )
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        assert breaker.state == BREAKER_OPEN
        clock.sleep(0.2)  # past the cooldown: next call is the probe
        completion = model.complete(make_prompt())
        assert completion.text == SQL
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100, clock=clock.now
        )
        inner = ScriptedLLM([TransientLLMError, TransientLLMError])
        model = resilient(
            inner, retry=RetryPolicy(max_retries=0), breaker=breaker,
            clock=clock,
        )
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        clock.sleep(0.2)
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        assert breaker.state == BREAKER_OPEN

    def test_half_open_probe_resolves_on_an_error_outside_llm_errors(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100, clock=clock.now
        )
        inner = ScriptedLLM([TransientLLMError, KeyError, SQL])
        model = resilient(
            inner, retry=RetryPolicy(max_retries=0), breaker=breaker,
            clock=clock,
        )
        with pytest.raises(TransientLLMError):
            model.complete(make_prompt())
        assert breaker.state == BREAKER_OPEN
        clock.sleep(0.2)
        # The half-open call fails outside the LLMError family: the error
        # propagates unchanged and the probe counts as failed.
        with pytest.raises(KeyError, match="scripted failure"):
            model.complete(make_prompt())
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(CircuitOpenError):
            model.complete(make_prompt())
        clock.sleep(0.2)  # the model has recovered; the next cooldown ends
        assert model.complete(make_prompt()).text == SQL
        assert breaker.state == BREAKER_CLOSED
        assert inner.calls == 3

    def test_half_open_allows_single_probe(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100, clock=clock.now
        )
        breaker.record_failure()
        clock.sleep(0.2)
        assert breaker.allow()  # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # no second concurrent probe

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_state_transition_metrics(self):
        obs.enable()
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100, clock=clock.now
        )
        breaker.record_failure()  # closed -> open
        clock.sleep(0.2)
        breaker.allow()  # open -> half_open
        breaker.record_success()  # half_open -> closed
        metrics = obs.get_metrics()
        assert metrics.counter_value("llm.breaker.state", state=BREAKER_OPEN) == 1
        assert (
            metrics.counter_value("llm.breaker.state", state=BREAKER_HALF_OPEN)
            == 1
        )
        assert (
            metrics.counter_value("llm.breaker.state", state=BREAKER_CLOSED) == 1
        )

    def test_successful_calls_never_touch_the_breaker_state(self):
        breaker = CircuitBreaker(failure_threshold=1)
        model = resilient(StubLLM(), breaker=breaker)
        for _ in range(3):
            model.complete(make_prompt())
        assert breaker.state == BREAKER_CLOSED


class TestTimeUntilProbe:
    def test_none_while_closed(self):
        breaker = CircuitBreaker()
        assert breaker.time_until_probe() is None

    def test_counts_down_while_open(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=1000, clock=clock.now
        )
        breaker.record_failure()
        remaining = breaker.time_until_probe()
        assert remaining == pytest.approx(1000.0)
        clock.sleep(0.4)
        assert breaker.time_until_probe() == pytest.approx(600.0)
        clock.sleep(1.0)
        assert breaker.time_until_probe() == 0.0

    def test_reading_a_ticking_clock_moves_no_time(self):
        clock = VirtualClock(tick=0.001)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=1000, clock=clock
        )
        breaker.record_failure()
        opened = clock.peek()
        assert breaker.time_until_probe() == breaker.time_until_probe()
        assert clock.peek() == opened

    def test_zero_while_half_open(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100, clock=clock.now
        )
        breaker.record_failure()
        clock.sleep(0.2)
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.time_until_probe() == 0.0


class TestBreakerTransitionEvents:
    def test_transition_events_carry_name_and_labels(self, tmp_path):
        import json

        from repro.obs import StructuredLog

        obs.enable()
        log = StructuredLog(tmp_path / "events")
        obs.set_event_log(log)
        try:
            clock = VirtualClock()
            breaker = CircuitBreaker(
                failure_threshold=1,
                reset_after_ms=100,
                clock=clock.now,
                name="primary",
                labels={"backend": "primary"},
            )
            breaker.record_failure()
            clock.sleep(0.2)
            breaker.allow()
            breaker.record_success()
        finally:
            obs.set_event_log(None)
        events = []
        for path in log.files():
            for line in path.read_text().splitlines():
                if line:
                    events.append(json.loads(line))
        transitions = [
            event for event in events
            if event["event"] == "breaker.transition"
        ]
        states = [(e["from_state"], e["to_state"]) for e in transitions]
        assert states == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
        assert all(e["breaker"] == "primary" for e in transitions)
        assert all(e["backend"] == "primary" for e in transitions)


class TestRetryAfterOverride:
    def test_retry_after_overrides_computed_backoff(self):
        clock = VirtualClock()
        inner = ScriptedLLM(
            [TransientLLMError("429", retry_after_ms=750.0), SQL]
        )
        model = resilient(
            inner,
            retry=RetryPolicy(max_retries=2, base_backoff_ms=100.0),
            clock=clock,
        )
        obs.enable()
        model.complete(make_prompt())
        backoff = _backoff_summary()
        assert backoff["count"] == 1
        assert backoff["sum"] == backoff["max"] == 750.0

    def test_retry_after_bounded_by_deadline_budget(self):
        clock = VirtualClock(tick=0.001)
        inner = ScriptedLLM(
            [TransientLLMError("429", retry_after_ms=60_000.0), SQL]
        )
        model = resilient(
            inner,
            retry=RetryPolicy(max_retries=2, deadline_ms=500.0),
            clock=clock,
        )
        obs.enable()
        model.complete(make_prompt())
        waited = _backoff_summary()
        assert waited["count"] == 1
        assert waited["max"] <= 500.0

    def test_absent_retry_after_uses_schedule(self):
        clock = VirtualClock()
        inner = ScriptedLLM([TransientLLMError, SQL])
        model = resilient(
            inner,
            retry=RetryPolicy(
                max_retries=2, base_backoff_ms=100.0, jitter=0.0
            ),
            clock=clock,
        )
        obs.enable()
        model.complete(make_prompt())
        backoff = _backoff_summary()
        assert backoff["count"] == 1
        assert backoff["sum"] == backoff["max"] == 100.0
