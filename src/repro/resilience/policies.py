"""Retry/backoff, deadline budgets, and circuit breaking for chat models.

:class:`ResilientChatModel` wraps any :class:`ChatModel` with the three
classic client-side policies:

* **Retry with exponential backoff + jitter** for
  :class:`~repro.errors.TransientLLMError` (timeouts and rate limits
  included). Jitter is hash-deterministic (seeded), so a chaos run's retry
  schedule is exactly reproducible.
* **Per-call deadline budget**: retries stop once the wrapped call —
  including backoff sleeps — has consumed ``deadline_ms``.
* **Circuit breaker** (closed → open → half-open): after
  ``failure_threshold`` consecutive failures the breaker opens and calls
  fail fast with :class:`~repro.errors.CircuitOpenError`; after
  ``reset_after_ms`` one probe call is let through (half-open) and its
  outcome closes or re-opens the circuit.

Clock and sleep are injectable. :class:`VirtualClock` pairs both so tests
and CLI chaos runs simulate backoff instantly while still recording real
schedule timings in the ``llm.retry_backoff_ms`` histogram.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.errors import CircuitOpenError, LLMError, TransientLLMError
from repro.llm.interface import ChatModel, Completion, Prompt
from repro.util import stable_fraction

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class VirtualClock:
    """A monotonic clock whose time advances on ``sleep`` (and, optionally,
    by ``tick`` seconds per reading).

    Pass ``clock.now``/``clock.sleep`` (or the instance itself as the
    clock) to the policies below: backoff waits become instantaneous while
    deadlines and breaker cooldowns still observe a consistent timeline.
    A non-zero ``tick`` models per-call latency, letting an open breaker's
    cooldown elapse with call traffic even though nothing really sleeps.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        if tick < 0:
            raise ValueError(f"tick must be >= 0: {tick}")
        self._now = start
        self._tick = tick

    def now(self) -> float:
        value = self._now
        self._now += self._tick
        return value

    __call__ = now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self._now += seconds

    def advance(self, seconds: float) -> None:
        """Alias of :meth:`sleep` for test readability."""
        self.sleep(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline configuration for :class:`ResilientChatModel`.

    Attributes:
        max_retries: Extra attempts after the first call (0 disables retry).
        base_backoff_ms: Backoff before the first retry; doubles per retry.
        max_backoff_ms: Cap on a single backoff wait.
        jitter: Fractional jitter; each wait is scaled by a deterministic
            factor in ``[1 - jitter, 1 + jitter]``.
        deadline_ms: Per-call budget across attempts and backoff sleeps;
            ``None`` disables the budget.
        seed: Seed for the deterministic jitter sequence.
    """

    max_retries: int = 2
    base_backoff_ms: float = 50.0
    max_backoff_ms: float = 2000.0
    jitter: float = 0.1
    deadline_ms: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ValueError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter out of [0, 1]: {self.jitter}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0: {self.deadline_ms}")

    def backoff_ms(self, retry_index: int, sequence: int) -> float:
        """The wait before retry ``retry_index`` (1-based), with jitter.

        ``sequence`` is a monotonically increasing retry counter from the
        caller; keying the jitter on it makes the whole schedule a pure
        function of (policy, call order).
        """
        raw = min(
            self.max_backoff_ms,
            self.base_backoff_ms * (2.0 ** (retry_index - 1)),
        )
        spread = 2.0 * stable_fraction("backoff", self.seed, sequence) - 1.0
        return raw * (1.0 + self.jitter * spread)


class CircuitBreaker:
    """A closed/open/half-open circuit breaker over consecutive failures.

    ``name`` and ``labels`` identify the breaker on its
    ``breaker.transition`` structured-log events (e.g. ``tenant=acme`` for
    a tenant stack, ``backend=primary`` for a router backend), so state
    changes are observable as they happen instead of only by polling
    :attr:`state`.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_ms: float = 30_000.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
        labels: Optional[dict] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        if reset_after_ms <= 0:
            raise ValueError(f"reset_after_ms must be > 0: {reset_after_ms}")
        self._failure_threshold = failure_threshold
        self._reset_after_ms = reset_after_ms
        self._clock = clock
        self._name = name
        self._labels = dict(labels or {})
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def time_until_probe(self) -> Optional[float]:
        """Milliseconds until an open breaker admits its half-open probe.

        ``None`` while closed (no probe pending); ``0.0`` when a probe
        would be admitted right now (cooldown elapsed, or already
        half-open awaiting one).
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return None
            if self._state == BREAKER_HALF_OPEN:
                return 0.0
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            return max(0.0, self._reset_after_ms - elapsed_ms)

    def _transition(self, state: str) -> None:
        # Lock is held by the caller.
        if state != self._state:
            previous = self._state
            self._state = state
            obs.count("llm.breaker.state", state=state)
            obs.event(
                "breaker.transition",
                breaker=self._name,
                from_state=previous,
                to_state=state,
                **self._labels,
            )

    def allow(self) -> bool:
        """Whether a call may proceed; drives the open → half-open probe."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            if self._state == BREAKER_OPEN:
                if elapsed_ms < self._reset_after_ms:
                    return False
                self._transition(BREAKER_HALF_OPEN)
                self._probe_in_flight = True
                return True
            # Half-open: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            if self._state == BREAKER_HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(BREAKER_OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self._failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(BREAKER_OPEN)


class ResilientChatModel:
    """A :class:`ChatModel` wrapper applying retry, deadline, and breaker.

    Emits ``llm.retries`` / ``llm.giveups`` / ``llm.breaker.rejections``
    counters and the ``llm.retry_backoff_ms`` histogram via ``repro.obs``;
    mirrored in the ``retries``/``giveups``/``rejections`` attributes so
    uninstrumented tests can assert on behaviour directly.
    """

    def __init__(
        self,
        inner: ChatModel,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._inner = inner
        self._retry = retry or RetryPolicy()
        self._breaker = breaker
        self._clock = clock
        self._sleep = sleep
        self._retry_sequence = 0
        self.retries = 0
        self.giveups = 0
        self.rejections = 0

    @property
    def inner(self) -> ChatModel:
        return self._inner

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        """The stack's circuit breaker (readiness probes read its state)."""
        return self._breaker

    def complete(self, prompt: Prompt) -> Completion:
        started = self._clock()
        retry_index = 0
        while True:
            if self._breaker is not None and not self._breaker.allow():
                self.rejections += 1
                obs.count("llm.breaker.rejections")
                raise CircuitOpenError(
                    "circuit breaker is open; rejecting LLM call "
                    f"(kind={prompt.kind})"
                )
            try:
                completion = self._inner.complete(prompt)
            except TransientLLMError as error:
                if self._breaker is not None:
                    self._breaker.record_failure()
                retry_index += 1
                if retry_index > self._retry.max_retries:
                    self._give_up("retries_exhausted", error)
                remaining = self._remaining_ms(started)
                if remaining is not None and remaining <= 0:
                    self._give_up("deadline", error)
                self.retries += 1
                self._retry_sequence += 1
                backoff = self._backoff_ms(
                    retry_index, self._retry_sequence, error, remaining
                )
                obs.count("llm.retries", kind=prompt.kind)
                obs.observe("llm.retry_backoff_ms", backoff)
                obs.event(
                    "llm.retry",
                    kind=prompt.kind,
                    attempt=retry_index,
                    backoff_ms=backoff,
                )
                self._sleep(backoff / 1000.0)
            except LLMError:
                if self._breaker is not None:
                    self._breaker.record_failure()
                raise
            else:
                if self._breaker is not None:
                    self._breaker.record_success()
                return completion

    def _backoff_ms(
        self,
        retry_index: int,
        sequence: int,
        error: TransientLLMError,
        remaining: Optional[float],
    ) -> float:
        """This retry's wait: the backend's ``Retry-After`` hint when the
        error carries one (a 429/503 that told us exactly when to come
        back), else the computed exponential schedule — either way bounded
        by what is left of the deadline budget."""
        retry_after = getattr(error, "retry_after_ms", None)
        if retry_after is not None and retry_after >= 0:
            backoff = float(retry_after)
        else:
            backoff = self._retry.backoff_ms(retry_index, sequence)
        if remaining is not None:
            backoff = min(backoff, remaining)
        return backoff

    def _remaining_ms(self, started: float) -> Optional[float]:
        if self._retry.deadline_ms is None:
            return None
        elapsed_ms = (self._clock() - started) * 1000.0
        return self._retry.deadline_ms - elapsed_ms

    def _give_up(self, reason: str, error: TransientLLMError) -> None:
        self.giveups += 1
        obs.count("llm.giveups", reason=reason)
        raise error
