"""Deterministic fault injection for any :class:`ChatModel`.

:class:`FaultInjectingChatModel` is the chaos harness: it wraps an inner
model and, per call, draws from a seeded hash-deterministic plan
(:func:`repro.util.stable_fraction`, the same no-process-randomness idiom
the rest of the repo uses) to decide whether to raise a timeout, a
transient backend error, a rate limit — or to corrupt the completion
(empty text, truncated/garbage SQL). Two runs with the same seed and call
sequence inject exactly the same faults, so chaos experiments are as
reproducible as the fault-free ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace

from repro import obs
from repro.errors import LLMTimeoutError, RateLimitError, TransientLLMError
from repro.llm.interface import ChatModel, Completion, Prompt

#: Injectable fault kinds, in the order the plan's bands are laid out.
FAULT_TIMEOUT = "timeout"
FAULT_TRANSIENT = "transient"
FAULT_RATE_LIMIT = "rate_limit"
FAULT_EMPTY = "empty"
FAULT_TRUNCATE = "truncate"

FAULT_KINDS = (
    FAULT_TIMEOUT,
    FAULT_TRANSIENT,
    FAULT_RATE_LIMIT,
    FAULT_EMPTY,
    FAULT_TRUNCATE,
)


@dataclass(frozen=True)
class FaultProfile:
    """Per-call fault rates (each in [0, 1]; bands must sum to <= 1).

    Attributes:
        timeout_rate: Probability the call raises :class:`LLMTimeoutError`.
        transient_rate: Probability of a :class:`TransientLLMError`.
        rate_limit_rate: Probability of a :class:`RateLimitError`.
        empty_rate: Probability the completion text comes back empty.
        truncate_rate: Probability the completion text is truncated and
            garbled (models a cut-off / hallucinated generation).
        seed: Seed for the deterministic fault plan.
    """

    timeout_rate: float = 0.0
    transient_rate: float = 0.0
    rate_limit_rate: float = 0.0
    empty_rate: float = 0.0
    truncate_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rate in self._rates().items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {rate}")
        if self.combined_rate > 1.0:
            raise ValueError(
                f"combined fault rate exceeds 1.0: {self.combined_rate}"
            )

    def _rates(self) -> dict[str, float]:
        return {
            FAULT_TIMEOUT: self.timeout_rate,
            FAULT_TRANSIENT: self.transient_rate,
            FAULT_RATE_LIMIT: self.rate_limit_rate,
            FAULT_EMPTY: self.empty_rate,
            FAULT_TRUNCATE: self.truncate_rate,
        }

    @property
    def combined_rate(self) -> float:
        """Total probability that a call is perturbed at all."""
        return sum(self._rates().values())

    def fault_for(self, draw: float) -> str | None:
        """Map one uniform draw in [0, 1) onto a fault kind (or None)."""
        cursor = 0.0
        for kind, rate in self._rates().items():
            cursor += rate
            if draw < cursor:
                return kind
        return None


#: Named profiles selectable via ``--inject-faults NAME``.
FAULT_PROFILES: dict[str, FaultProfile] = {
    # No faults at all: wraps without perturbing (sanity baseline).
    "none": FaultProfile(),
    # The documented chaos baseline: 16% of calls perturbed.
    "default": FaultProfile(
        timeout_rate=0.04,
        transient_rate=0.04,
        rate_limit_rate=0.02,
        empty_rate=0.03,
        truncate_rate=0.03,
    ),
    # Retry-heavy: mostly transient faults a retry policy should absorb.
    "flaky": FaultProfile(
        timeout_rate=0.08,
        transient_rate=0.12,
        rate_limit_rate=0.05,
    ),
    # Breaker-heavy: enough hard failures to trip a circuit breaker.
    "outage": FaultProfile(
        timeout_rate=0.20,
        transient_rate=0.25,
        rate_limit_rate=0.05,
        empty_rate=0.05,
        truncate_rate=0.05,
    ),
}

_RATE_ALIASES = {kind: f"{kind}_rate" for kind in FAULT_KINDS}


def resolve_fault_profile(spec: str, seed: int = 0) -> FaultProfile:
    """Resolve ``--inject-faults`` input to a :class:`FaultProfile`.

    ``spec`` is either a named profile (``default``, ``flaky``, …) or a
    comma-separated rate spec like ``timeout=0.1,empty=0.05``. ``seed``
    applies unless the spec sets its own (``seed=N``).

    Raises:
        ValueError: on unknown names/keys or malformed values.
    """
    text = spec.strip()
    if text in FAULT_PROFILES:
        return replace(FAULT_PROFILES[text], seed=seed)
    if "=" not in text:
        names = ", ".join(sorted(FAULT_PROFILES))
        raise ValueError(
            f"unknown fault profile {spec!r}; named profiles: {names}, "
            "or a spec like 'timeout=0.1,empty=0.05'"
        )
    values: dict[str, object] = {"seed": seed}
    valid = {f.name for f in fields(FaultProfile)}
    for part in text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        key = _RATE_ALIASES.get(key, key)
        if key not in valid:
            raise ValueError(f"unknown fault profile key {key!r} in {spec!r}")
        try:
            values[key] = int(raw) if key == "seed" else float(raw)
        except ValueError:
            raise ValueError(
                f"malformed value for {key!r} in fault spec {spec!r}: {raw!r}"
            ) from None
    return FaultProfile(**values)  # type: ignore[arg-type]


def _truncate_text(text: str, draw: float) -> str:
    """Deterministically garble a completion (cut-off mid-generation)."""
    if not text:
        return "SELEC"
    cut = max(1, int(len(text) * (0.3 + 0.4 * draw)))
    return text[:cut] + " ..."


class FaultInjectingChatModel:
    """A :class:`ChatModel` wrapper that injects seeded deterministic faults.

    The per-call decision is keyed by ``(seed, call_index)``, so the fault
    sequence depends only on the profile and the order of calls — retries
    count as fresh calls and draw fresh faults, exactly like a real flaky
    backend. ``fault_counts`` tallies injections for tests and reports
    that run without the obs layer enabled.
    """

    def __init__(self, inner: ChatModel, profile: FaultProfile) -> None:
        self._inner = inner
        self._profile = profile
        self._lock = threading.Lock()
        self._calls = 0
        self.fault_counts: dict[str, int] = {}

    @property
    def inner(self) -> ChatModel:
        return self._inner

    @property
    def profile(self) -> FaultProfile:
        return self._profile

    @property
    def calls(self) -> int:
        """Total completion calls seen (faulted or not)."""
        return self._calls

    def complete(self, prompt: Prompt) -> Completion:
        from repro.util import stable_fraction

        with self._lock:
            self._calls += 1
            index = self._calls
        fault = self._profile.fault_for(
            stable_fraction("fault", self._profile.seed, index)
        )
        if fault is None:
            return self._inner.complete(prompt)

        with self._lock:
            self.fault_counts[fault] = self.fault_counts.get(fault, 0) + 1
        obs.count("llm.faults.injected", kind=fault)
        if fault == FAULT_TIMEOUT:
            raise LLMTimeoutError(
                f"injected timeout (call #{index}, kind={prompt.kind})"
            )
        if fault == FAULT_TRANSIENT:
            raise TransientLLMError(
                f"injected transient backend error (call #{index})"
            )
        if fault == FAULT_RATE_LIMIT:
            raise RateLimitError(f"injected rate limit (call #{index})")
        if fault == FAULT_EMPTY:
            return Completion(text="", notes=["injected empty completion"])
        completion = self._inner.complete(prompt)
        garbled = _truncate_text(
            completion.text,
            stable_fraction("truncate", self._profile.seed, index),
        )
        return Completion(
            text=garbled,
            notes=completion.notes + ["injected truncated completion"],
        )
