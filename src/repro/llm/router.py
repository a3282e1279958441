"""Multi-backend model routing with breaker-driven failover.

One :class:`SimulatedLLM` behind one retry/breaker stack means a single
backend failure takes down NL2SQL, routing, and correction traffic alike.
This module splits the model tier into an ordered pool of *named*
backends, each wrapped in its own :class:`~repro.resilience.policies
.ResilientChatModel` stack with a backend-scoped circuit breaker, and
routes across them:

* :class:`RoutingChatModel` — sends every prompt kind to the first
  backend in pool order (the paper runs one model for NL2SQL, feedback
  routing, rewrite and editing) and **fails over** along the pool order
  when a call fails transiently or the backend's breaker is open.
* :class:`BackendPool` — the ordered backends and their health. Each
  backend's breaker is its only health state: the backend is healthy
  while its breaker is closed, an ejection is the breaker tripping open,
  and a readmission is the breaker closing again after its half-open
  call succeeds. In ``run`` that half-open call is the next live call
  after the cooldown (deterministic under a
  :class:`~repro.resilience.policies.VirtualClock`); ``serve`` also runs
  a background prober (``start_probing``) that sends the half-open call
  itself once the cooldown is over.

Metric names: ``llm.backend`` (counter, labels ``backend``/``outcome``
with outcome in ok | error | failover | rejected),
``llm.backend_latency_ms`` (histogram, labelled ``backend``). Health
changes are the breakers' own ``llm.breaker.trips`` /
``llm.breaker.recoveries`` counters and ``breaker.transition`` events,
labelled ``backend``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import obs
from repro.errors import CircuitOpenError, LLMError, TransientLLMError
from repro.llm.interface import KIND_ROUTING, ChatModel, Completion, Prompt
from repro.resilience.policies import (
    BREAKER_CLOSED,
    CircuitBreaker,
    ResilientChatModel,
    RetryPolicy,
)

#: Outcome labels on the ``llm.backend`` counter.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_FAILOVER = "failover"
OUTCOME_REJECTED = "rejected"

#: Seconds between background probe rounds without ``--probe-interval-ms``.
DEFAULT_PROBE_INTERVAL_S = 1.0


def probe_prompt() -> Prompt:
    """The synthetic health-check prompt.

    A feedback-routing prompt is the cheapest kind every backend answers:
    the simulated model classifies the literal feedback text, and an HTTP
    backend just round-trips the rendered text.
    """
    return Prompt(
        kind=KIND_ROUTING,
        text="FISQL health probe",
        payload={"feedback": "health probe"},
    )


class Backend:
    """One named pool member: its resilient model stack, the breaker
    inside that stack, and plain counts of the calls it answered and
    failed."""

    def __init__(
        self, name: str, model: ChatModel, breaker: CircuitBreaker
    ) -> None:
        if not name:
            raise ValueError("backend name must be non-empty")
        if breaker is None:
            raise ValueError(f"backend {name!r} needs a circuit breaker")
        self.name = name
        self.model = model
        self.breaker = breaker
        self.calls_ok = 0
        self.calls_failed = 0


class BackendPool:
    """An ordered pool of named backends; failover order is pool order.

    The routing facades (one per tenant in the serve tier) share one pool,
    which counts each backend's calls and reads its health from its
    breaker.
    """

    def __init__(self, backends: Sequence[Backend]) -> None:
        backends = list(backends)
        if not backends:
            raise ValueError("a backend pool needs at least one backend")
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backend names: {names}")
        self._backends = backends
        self._by_name = {backend.name: backend for backend in backends}
        self._on_outcome: Optional[Callable[[str, str, float], None]] = None
        self._lock = threading.Lock()
        self._probe_thread: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()

    # -- pool shape -----------------------------------------------------------

    @property
    def backends(self) -> list[Backend]:
        return list(self._backends)

    @property
    def names(self) -> list[str]:
        return [backend.name for backend in self._backends]

    def __getitem__(self, name: str) -> Backend:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown backend {name!r}; pool has: {self.names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._backends)

    # -- outcome accounting ---------------------------------------------------

    def set_outcome_hook(
        self, hook: Optional[Callable[[str, str, float], None]]
    ) -> None:
        """Install the live-telemetry feed: ``hook(name, outcome, ms)``
        per routed-call outcome (the serve tier wires its TelemetryHub)."""
        self._on_outcome = hook

    def record_outcome(
        self,
        backend: Backend,
        outcome: str,
        duration_ms: Optional[float] = None,
    ) -> None:
        """Count one routed-call outcome (and its latency, when timed).

        An ``ok`` outcome also counts one of the backend's ``calls_ok``,
        an ``error`` one of its ``calls_failed``.
        """
        if outcome in (OUTCOME_OK, OUTCOME_ERROR):
            with self._lock:
                if outcome == OUTCOME_OK:
                    backend.calls_ok += 1
                else:
                    backend.calls_failed += 1
        obs.count("llm.backend", backend=backend.name, outcome=outcome)
        if duration_ms is not None:
            obs.observe(
                "llm.backend_latency_ms", duration_ms, backend=backend.name
            )
        if self._on_outcome is not None:
            self._on_outcome(backend.name, outcome, duration_ms or 0.0)

    # -- background probing (serve) -------------------------------------------

    def probe_round(self, liveness: bool = False) -> None:
        """Send a probe prompt through the full stack of each backend whose
        breaker is due for its half-open call (open past its cooldown),
        and with ``liveness`` also of each backend whose breaker is closed.

        The breaker counts a probe like any call: a due breaker lets it
        through half-open and closes again on its success.
        """
        for backend in self._backends:
            until_probe = backend.breaker.time_until_probe()
            if until_probe == 0.0 or (liveness and until_probe is None):
                try:
                    backend.model.complete(probe_prompt())
                except LLMError:
                    pass  # the backend's breaker has counted the failure

    def start_probing(self, interval_ms: Optional[float] = None) -> None:
        """Start the background probe loop (the serve path).

        Every ``interval_ms`` (default one second) it runs a
        :meth:`probe_round`, with liveness probes only when
        ``interval_ms`` is given.
        """
        if self._probe_thread is not None:
            return
        liveness = interval_ms is not None
        interval_s = (
            interval_ms / 1000.0 if liveness else DEFAULT_PROBE_INTERVAL_S
        )
        self._probe_stop.clear()

        def loop() -> None:
            while not self._probe_stop.wait(interval_s):
                try:
                    self.probe_round(liveness)
                except Exception:  # noqa: BLE001 - probe loop must survive
                    obs.count("llm.backend.probe_loop_errors")

        self._probe_thread = threading.Thread(
            target=loop, name="backend-probe", daemon=True
        )
        self._probe_thread.start()

    def stop_probing(self) -> None:
        thread = self._probe_thread
        if thread is None:
            return
        self._probe_stop.set()
        thread.join(timeout=5.0)
        self._probe_thread = None

    # -- health reporting -----------------------------------------------------

    def health_snapshot(self) -> dict:
        """Per-backend health for ``/readyz``, ``/statusz``, and metrics.

        Reading it moves no virtual clock: each breaker's countdown is
        read through the clock's ``peek`` when it has one.
        """
        snapshot: dict = {}
        for backend in self._backends:
            breaker = backend.breaker
            state = breaker.state
            with self._lock:
                calls_ok, calls_failed = backend.calls_ok, backend.calls_failed
            entry: dict = {
                "healthy": state == BREAKER_CLOSED,
                "consecutive_failures": breaker.consecutive_failures,
                "calls_ok": calls_ok,
                "calls_failed": calls_failed,
                "ejections": breaker.trips,
                "readmissions": breaker.recoveries,
                "breaker": state,
            }
            until_probe = breaker.time_until_probe()
            if until_probe is not None:
                entry["breaker_probe_in_ms"] = round(until_probe, 3)
            snapshot[backend.name] = entry
        return snapshot


class RoutingChatModel:
    """A :class:`ChatModel` that routes across a :class:`BackendPool`.

    Every prompt goes to the first backend; failover then walks the
    remaining backends in pool order. Transient errors and open breakers
    fail over; other ``LLMError``\\ s are the request's own problem and
    propagate. When every backend fails or refuses, the last error is
    raised: a :class:`~repro.errors.CircuitOpenError` when the last
    backend's breaker is open.
    """

    def __init__(self, pool: BackendPool) -> None:
        self._pool = pool

    @property
    def pool(self) -> BackendPool:
        return self._pool

    def complete(self, prompt: Prompt) -> Completion:
        backends = self._pool.backends
        for position, backend in enumerate(backends):
            started = time.monotonic()
            try:
                completion = backend.model.complete(prompt)
            except CircuitOpenError as error:
                self._pool.record_outcome(backend, OUTCOME_REJECTED)
                last_error: LLMError = error
            except TransientLLMError as error:
                self._pool.record_outcome(backend, OUTCOME_ERROR)
                last_error = error
            except LLMError:
                # The request itself is bad (prompt error, 4xx): another
                # backend would reject it too.
                self._pool.record_outcome(backend, OUTCOME_ERROR)
                raise
            else:
                duration_ms = (time.monotonic() - started) * 1000.0
                self._pool.record_outcome(backend, OUTCOME_OK, duration_ms)
                return completion
            if position + 1 < len(backends):
                successor = backends[position + 1]
                self._pool.record_outcome(successor, OUTCOME_FAILOVER)
                obs.event(
                    "backend.failover",
                    kind=prompt.kind,
                    from_backend=backend.name,
                    to_backend=successor.name,
                    error=type(last_error).__name__,
                )
        raise last_error


# -- backend specs & pool construction ---------------------------------------------

#: Backend kinds accepted by ``--backend name=kind[,...]``.
BACKEND_KIND_SIMULATED = "simulated"
BACKEND_KIND_HTTP = "http"

_SPEC_KEYS = {
    "model",
    "base-url",
    "api-key",
    "timeout-s",
    "fault",
    "fault-seed",
    "retries",
    "deadline-ms",
    "breaker-threshold",
    "breaker-reset-ms",
}


@dataclass(frozen=True)
class BackendSpec:
    """One parsed ``--backend`` flag: a named backend and its options."""

    name: str
    kind: str
    options: "tuple[tuple[str, str], ...]" = ()

    def option(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for candidate, value in self.options:
            if candidate == key:
                return value
        return default


def parse_backend_spec(text: str) -> BackendSpec:
    """Parse ``name=kind[,key=value...]`` into a :class:`BackendSpec`.

    Kinds: ``simulated`` (the offline deterministic model, optionally
    flapped with ``fault=PROFILE``/``fault-seed=N``) and ``http`` (an
    OpenAI-compatible endpoint, requires ``base-url=``). Common options:
    ``retries=``, ``deadline-ms=``, ``breaker-threshold=``,
    ``breaker-reset-ms=``; HTTP adds ``model=``, ``api-key=``,
    ``timeout-s=``.
    """
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts or "=" not in parts[0]:
        raise ValueError(
            f"malformed backend spec {text!r}; expected "
            "name=kind[,key=value...]"
        )
    name, _, kind = parts[0].partition("=")
    name, kind = name.strip(), kind.strip()
    if not name or not kind:
        raise ValueError(f"malformed backend spec {text!r}")
    if kind not in (BACKEND_KIND_SIMULATED, BACKEND_KIND_HTTP):
        raise ValueError(
            f"unknown backend kind {kind!r} in {text!r}; expected "
            f"{BACKEND_KIND_SIMULATED!r} or {BACKEND_KIND_HTTP!r}"
        )
    options: list[tuple[str, str]] = []
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _SPEC_KEYS:
            valid = ", ".join(sorted(_SPEC_KEYS))
            raise ValueError(
                f"unknown backend option {part!r} in {text!r}; "
                f"valid keys: {valid}"
            )
        options.append((key, value.strip()))
    if kind == BACKEND_KIND_HTTP and not any(
        key == "base-url" for key, _ in options
    ):
        raise ValueError(
            f"http backend {name!r} needs base-url=http://host:port/prefix"
        )
    return BackendSpec(name=name, kind=kind, options=tuple(options))


def _spec_float(
    spec: BackendSpec, key: str, default: Optional[float] = None
) -> Optional[float]:
    """The option as a float, or ``default`` when the spec omits it."""
    raw = spec.option(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"backend {spec.name!r}: malformed {key}={raw!r}"
        ) from None


def _spec_int(
    spec: BackendSpec, key: str, default: Optional[int] = None
) -> Optional[int]:
    """The option as an int, or ``default`` when the spec omits it."""
    raw = spec.option(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"backend {spec.name!r}: malformed {key}={raw!r}"
        ) from None


def build_backend_pool(
    specs: Sequence[BackendSpec],
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    seed: int = 0,
    default_retries: int = 2,
    default_deadline_ms: Optional[float] = None,
    default_breaker_reset_ms: float = 30_000.0,
) -> BackendPool:
    """Assemble a :class:`BackendPool` from parsed ``--backend`` specs.

    Each backend gets its own :class:`ResilientChatModel` stack and a
    backend-scoped :class:`CircuitBreaker` named after it, so one
    backend's failures never trip a sibling's breaker; ``clock`` drives
    the breakers' cooldowns and the stacks' deadlines. Pass a
    :class:`~repro.resilience.policies.VirtualClock` itself, not its
    ``now``, so that :meth:`BackendPool.health_snapshot` reads it without
    a tick. ``fault=PROFILE``
    wraps that backend (alone) in a seeded
    :class:`~repro.resilience.faults.FaultInjectingChatModel` for chaos
    runs.
    """
    from repro.llm.simulated import SimulatedLLM
    from repro.resilience.faults import (
        FaultInjectingChatModel,
        resolve_fault_profile,
    )

    backends: list[Backend] = []
    for spec in specs:
        inner: ChatModel
        if spec.kind == BACKEND_KIND_SIMULATED:
            inner = SimulatedLLM()
        else:
            from repro.llm.http_backend import DEFAULT_MODEL, HttpChatModel

            inner = HttpChatModel(
                base_url=spec.option("base-url"),  # validated by the parser
                model=spec.option("model", DEFAULT_MODEL),
                api_key=spec.option("api-key"),
                timeout_s=_spec_float(spec, "timeout-s", 30.0),
            )
        fault = spec.option("fault")
        if fault is not None:
            profile = resolve_fault_profile(
                fault, seed=_spec_int(spec, "fault-seed", seed)
            )
            inner = FaultInjectingChatModel(inner, profile)
        breaker = CircuitBreaker(
            failure_threshold=_spec_int(spec, "breaker-threshold", 5),
            reset_after_ms=_spec_float(
                spec, "breaker-reset-ms", default_breaker_reset_ms
            ),
            clock=clock,
            name=spec.name,
            labels={"backend": spec.name},
        )
        stack = ResilientChatModel(
            inner,
            retry=RetryPolicy(
                max_retries=_spec_int(spec, "retries", default_retries),
                deadline_ms=_spec_float(spec, "deadline-ms", default_deadline_ms),
                seed=seed,
            ),
            breaker=breaker,
            clock=clock,
            sleep=sleep,
        )
        backends.append(Backend(spec.name, stack, breaker))
    return BackendPool(backends)
