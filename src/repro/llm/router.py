"""Multi-backend model routing with health-checked failover and hedging.

One :class:`SimulatedLLM` behind one retry/breaker stack means a single
backend failure takes down NL2SQL, routing, and correction traffic alike.
This module splits the model tier into an ordered pool of *named*
backends, each wrapped in its own :class:`~repro.resilience.policies
.ResilientChatModel` stack with a backend-scoped circuit breaker, and
routes across them:

* :class:`RoutingChatModel` — routes each prompt by its *kind* (cheap
  backend for feedback-routing/rewrite prompts, strong backend for
  NL2SQL and corrections — whatever the per-tenant route map says) and
  **fails over** along the pool order when a call fails transiently, a
  breaker is open, or the backend is ejected.
* :class:`BackendPool` + per-backend :class:`BackendHealth` — outlier
  detection: consecutive failures (live calls and synthetic probes both
  count) eject a backend from rotation; after ``readmit_after_ms`` a
  probe re-tests it and success readmits it. Probing is either *lazy
  on-path* (``maybe_probe``, deterministic under a
  :class:`~repro.resilience.policies.VirtualClock` — the batch CLI path)
  or a background daemon thread (``start_probing`` — the serve path).
* **Hedged requests** — with ``hedge_after_ms`` set, ``complete`` fires
  the next candidate if the first hasn't answered in time; the first
  settled *success* wins, primary preferred when both have settled, and
  the loser's completion is discarded (its metrics still count).
  Hedging never triggers when the primary answers fast, so fault-free
  runs stay byte-identical to the unrouted pipeline.

Metric names: ``llm.backend`` (counter, labels ``backend``/``outcome``
with outcome in ok | error | failover | skipped | rejected | hedge |
hedge_win), ``llm.backend_latency_ms`` (histogram, labelled
``backend``).
Health changes emit ``backend.ejected`` / ``backend.readmitted``
structured-log events.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from repro import obs
from repro.errors import (
    CircuitOpenError,
    LLMError,
    NoHealthyBackendError,
    TransientLLMError,
)
from repro.llm.interface import (
    KIND_FEEDBACK,
    KIND_NL2SQL,
    KIND_REWRITE,
    KIND_ROUTING,
    ChatModel,
    Completion,
    Prompt,
)

#: Outcome labels on the ``llm.backend`` counter.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_FAILOVER = "failover"
OUTCOME_SKIPPED = "skipped"
OUTCOME_REJECTED = "rejected"
OUTCOME_HEDGE = "hedge"
OUTCOME_HEDGE_WIN = "hedge_win"

#: Spellings accepted by ``--route-map`` for each prompt kind.
ROUTE_KIND_ALIASES: dict[str, str] = {
    "nl2sql": KIND_NL2SQL,
    KIND_NL2SQL: KIND_NL2SQL,
    "feedback": KIND_FEEDBACK,
    "correction": KIND_FEEDBACK,
    KIND_FEEDBACK: KIND_FEEDBACK,
    "routing": KIND_ROUTING,
    KIND_ROUTING: KIND_ROUTING,
    "rewrite": KIND_REWRITE,
    KIND_REWRITE: KIND_REWRITE,
}


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


def tiered_route_map(strong: str, cheap: str) -> dict[str, str]:
    """The paper-loop tiering: strong model for NL2SQL and corrections,
    cheap model for feedback routing and query rewrites."""
    return {
        KIND_NL2SQL: strong,
        KIND_FEEDBACK: strong,
        KIND_ROUTING: cheap,
        KIND_REWRITE: cheap,
    }


@dataclass
class BackendHealth:
    """Mutable health record for one pooled backend."""

    healthy: bool = True
    consecutive_failures: int = 0
    ejected_at: Optional[float] = None
    last_probe_at: Optional[float] = None
    probes: int = 0
    probe_failures: int = 0
    calls_ok: int = 0
    calls_failed: int = 0
    ejections: int = 0
    readmissions: int = 0


class Backend:
    """One named pool member: the (already resilient) model stack plus
    its backend-scoped breaker, if the stack has one."""

    def __init__(
        self,
        name: str,
        model: ChatModel,
        breaker: Optional[object] = None,
    ) -> None:
        if not name:
            raise ValueError("backend name must be non-empty")
        self.name = name
        self.model = model
        # Fall back to the stack's own breaker attribute when not given.
        self.breaker = breaker if breaker is not None else getattr(
            model, "breaker", None
        )
        self.health = BackendHealth()


class BackendPool:
    """An ordered pool of named backends with outlier ejection.

    Failover order is pool order. Health bookkeeping is centralised here
    so the routing facades (one per tenant in the serve tier) can share
    one pool: ``note_success``/``note_failure`` feed the consecutive-
    failure counter from live traffic, ``maybe_probe``/``probe`` feed it
    from synthetic probes, and crossing ``eject_after`` failures ejects
    the backend from rotation until a readmission probe (no earlier than
    ``readmit_after_ms`` after ejection) succeeds. Probes go through the
    backend's full resilient stack, so an open breaker also blocks
    readmission until its own cooldown admits the half-open probe.
    """

    def __init__(
        self,
        backends: Sequence[Backend],
        clock: Callable[[], float] = time.monotonic,
        eject_after: int = 3,
        readmit_after_ms: float = 5000.0,
        probe_interval_ms: Optional[float] = None,
        on_outcome: Optional[Callable[[str, str, float], None]] = None,
    ) -> None:
        backends = list(backends)
        if not backends:
            raise ValueError("a backend pool needs at least one backend")
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backend names: {names}")
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1: {eject_after}")
        if readmit_after_ms < 0:
            raise ValueError(
                f"readmit_after_ms must be >= 0: {readmit_after_ms}"
            )
        self._backends = backends
        self._by_name = {backend.name: backend for backend in backends}
        self._clock = clock
        self._eject_after = eject_after
        self._readmit_after_ms = readmit_after_ms
        self._probe_interval_ms = probe_interval_ms
        self._on_outcome = on_outcome
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
        self, name: str, outcome: str, duration_ms: Optional[float] = None
    ) -> None:
        """Count one routed-call outcome (and its latency, when timed)."""
        obs.count("llm.backend", backend=name, outcome=outcome)
        if duration_ms is not None:
            obs.observe("llm.backend_latency_ms", duration_ms, backend=name)
        if self._on_outcome is not None:
            self._on_outcome(name, outcome, duration_ms or 0.0)

    def note_success(self, backend: Backend) -> None:
        with self._lock:
            backend.health.calls_ok += 1
            backend.health.consecutive_failures = 0

    def note_failure(self, backend: Backend) -> None:
        with self._lock:
            backend.health.calls_failed += 1
            self._note_failure_locked(backend)

    def _note_failure_locked(self, backend: Backend) -> None:
        health = backend.health
        health.consecutive_failures += 1
        if health.healthy and health.consecutive_failures >= self._eject_after:
            health.healthy = False
            health.ejected_at = self._clock()
            health.ejections += 1
            obs.count("llm.backend.ejections", backend=backend.name)
            obs.event(
                "backend.ejected",
                backend=backend.name,
                consecutive_failures=health.consecutive_failures,
            )

    def available(self, backend: Backend) -> bool:
        """Whether the backend is in rotation (not ejected)."""
        with self._lock:
            return backend.health.healthy

    # -- probing & readmission ------------------------------------------------

    def probe(self, backend: Backend) -> bool:
        """Synthetic health check through the backend's full stack.

        Success resets the failure streak and readmits an ejected
        backend; failure feeds the same ejection counter live calls do.
        """
        with self._lock:
            backend.health.probes += 1
            backend.health.last_probe_at = self._clock()
        try:
            backend.model.complete(probe_prompt())
        except LLMError:
            with self._lock:
                backend.health.probe_failures += 1
                self._note_failure_locked(backend)
            self.record_outcome(backend.name, OUTCOME_ERROR)
            return False
        with self._lock:
            health = backend.health
            health.consecutive_failures = 0
            if not health.healthy:
                health.healthy = True
                health.ejected_at = None
                health.readmissions += 1
                obs.count("llm.backend.readmissions", backend=backend.name)
                obs.event("backend.readmitted", backend=backend.name)
        return True

    def _probe_due(self, backend: Backend) -> bool:
        with self._lock:
            health = backend.health
            now = self._clock()
            if not health.healthy:
                assert health.ejected_at is not None
                since_ejection = (now - health.ejected_at) * 1000.0
                if since_ejection < self._readmit_after_ms:
                    return False
                # Don't re-probe an ejected backend more often than the
                # readmission interval either.
                if health.last_probe_at is not None:
                    since_probe = (now - health.last_probe_at) * 1000.0
                    if (
                        health.last_probe_at > health.ejected_at
                        and since_probe < self._readmit_after_ms
                    ):
                        return False
                return True
            if self._probe_interval_ms is None:
                return False
            if health.last_probe_at is None:
                return True
            return (
                (now - health.last_probe_at) * 1000.0
                >= self._probe_interval_ms
            )

    def maybe_probe(self) -> None:
        """Run whichever probes are due right now (lazy on-path probing).

        The batch CLI path calls this before each routed dispatch: under a
        :class:`VirtualClock` the due-ness is a pure function of simulated
        time, so probe traffic is deterministic.
        """
        for backend in self._backends:
            if self._probe_due(backend):
                self.probe(backend)

    def start_probing(self, interval_s: Optional[float] = None) -> None:
        """Start the background probe loop (the serve path)."""
        if self._probe_thread is not None:
            return
        if interval_s is None:
            interval_ms = self._probe_interval_ms or 1000.0
            interval_s = interval_ms / 1000.0
        self._probe_stop.clear()

        def loop() -> None:
            while not self._probe_stop.wait(interval_s):
                try:
                    self.maybe_probe()
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
        """Per-backend health for ``/readyz``, ``/statusz``, and metrics."""
        snapshot: dict = {}
        with self._lock:
            now = self._clock()
            for backend in self._backends:
                health = backend.health
                entry: dict = {
                    "healthy": health.healthy,
                    "consecutive_failures": health.consecutive_failures,
                    "calls_ok": health.calls_ok,
                    "calls_failed": health.calls_failed,
                    "probes": health.probes,
                    "probe_failures": health.probe_failures,
                    "ejections": health.ejections,
                    "readmissions": health.readmissions,
                }
                if health.ejected_at is not None:
                    entry["ejected_for_ms"] = round(
                        (now - health.ejected_at) * 1000.0, 3
                    )
                breaker = backend.breaker
                if breaker is not None:
                    entry["breaker"] = breaker.state
                    until_probe = breaker.time_until_probe()
                    if until_probe is not None:
                        entry["breaker_probe_in_ms"] = round(until_probe, 3)
                snapshot[backend.name] = entry
        return snapshot


class RoutingChatModel:
    """A :class:`ChatModel` that routes across a :class:`BackendPool`.

    Each prompt's kind selects its *preferred* backend via ``route_map``
    (falling back to the pool's first backend); failover then walks the
    remaining backends in pool order. Transient errors and open breakers
    fail over; other ``LLMError``\\ s are the request's own problem and
    propagate. When every candidate is ejected the call fails fast with
    :class:`~repro.errors.NoHealthyBackendError`.

    ``hedge_after_ms`` arms tail-latency hedging on ``complete`` calls
    (see module docstring for the determinism rules).
    ``probe_on_path`` makes each dispatch run due probes first — the
    deterministic batch-CLI alternative to ``BackendPool.start_probing``.
    """

    def __init__(
        self,
        pool: BackendPool,
        route_map: Optional[Mapping[str, str]] = None,
        hedge_after_ms: Optional[float] = None,
        probe_on_path: bool = False,
    ) -> None:
        if hedge_after_ms is not None and hedge_after_ms < 0:
            raise ValueError(
                f"hedge_after_ms must be >= 0: {hedge_after_ms}"
            )
        self._pool = pool
        self._route_map = dict(route_map or {})
        for kind, name in self._route_map.items():
            if name not in pool:
                raise ValueError(
                    f"route map sends {kind!r} to unknown backend "
                    f"{name!r}; pool has: {pool.names}"
                )
        self._hedge_after_ms = hedge_after_ms
        self._probe_on_path = probe_on_path

    @property
    def pool(self) -> BackendPool:
        return self._pool

    @property
    def route_map(self) -> dict[str, str]:
        return dict(self._route_map)

    def _candidates(self, kind: str) -> list[Backend]:
        """Preferred backend first, then the rest in pool order."""
        preferred = self._route_map.get(kind)
        backends = self._pool.backends
        if preferred is None:
            return backends
        ordered = [self._pool[preferred]]
        ordered.extend(b for b in backends if b.name != preferred)
        return ordered

    # -- dispatch -------------------------------------------------------------

    def complete(self, prompt: Prompt) -> Completion:
        if self._probe_on_path:
            self._pool.maybe_probe()
        candidates = self._candidates(prompt.kind)
        in_rotation = [b for b in candidates if self._pool.available(b)]
        for backend in candidates:
            if backend not in in_rotation:
                self._pool.record_outcome(backend.name, OUTCOME_SKIPPED)
        if not in_rotation:
            raise NoHealthyBackendError(
                f"all backends ejected ({self._pool.names}); "
                f"rejecting LLM call (kind={prompt.kind})"
            )
        if self._hedge_after_ms is not None and len(in_rotation) >= 2:
            return self._complete_hedged(prompt, in_rotation)
        return self._complete_sequential(prompt, in_rotation)

    def _complete_sequential(
        self, prompt: Prompt, candidates: Sequence[Backend]
    ) -> Completion:
        last_error: Optional[LLMError] = None
        for position, backend in enumerate(candidates):
            started = time.monotonic()
            try:
                completion = backend.model.complete(prompt)
            except (TransientLLMError, CircuitOpenError) as error:
                self._pool.note_failure(backend)
                last_error = error
                outcome = (
                    OUTCOME_REJECTED
                    if isinstance(error, CircuitOpenError)
                    else OUTCOME_ERROR
                )
                self._pool.record_outcome(backend.name, outcome)
                if position + 1 < len(candidates):
                    self._pool.record_outcome(
                        candidates[position + 1].name, OUTCOME_FAILOVER
                    )
                    obs.event(
                        "backend.failover",
                        kind=prompt.kind,
                        from_backend=backend.name,
                        to_backend=candidates[position + 1].name,
                        error=type(error).__name__,
                    )
                continue
            except LLMError as error:
                # The request itself is bad (prompt error, 4xx): another
                # backend would reject it too.
                self._pool.note_failure(backend)
                self._pool.record_outcome(backend.name, OUTCOME_ERROR)
                raise error
            duration_ms = (time.monotonic() - started) * 1000.0
            self._pool.note_success(backend)
            self._pool.record_outcome(backend.name, OUTCOME_OK, duration_ms)
            return completion
        assert last_error is not None
        raise last_error

    def _complete_hedged(
        self, prompt: Prompt, candidates: Sequence[Backend]
    ) -> Completion:
        """Primary plus one delayed hedge; first settled success wins.

        Determinism rules: the hedge fires only if the primary has not
        settled within ``hedge_after_ms`` of real wall-clock time, and
        when both have settled the primary's outcome is preferred — so a
        fast, healthy primary yields exactly the sequential result.
        """
        primary, hedge = candidates[0], candidates[1]
        cond = threading.Condition()
        outcomes: dict[str, tuple[Union[Completion, LLMError], float]] = {}

        def run(slot: str, backend: Backend) -> None:
            started = time.monotonic()
            settled: Union[Completion, LLMError]
            try:
                settled = backend.model.complete(prompt)
            except LLMError as error:
                settled = error
            duration_ms = (time.monotonic() - started) * 1000.0
            with cond:
                outcomes[slot] = (settled, duration_ms)
                cond.notify_all()

        threading.Thread(
            target=run, args=("primary", primary), daemon=True
        ).start()
        with cond:
            cond.wait_for(
                lambda: "primary" in outcomes,
                timeout=self._hedge_after_ms / 1000.0,
            )
            primary_settled = "primary" in outcomes
        if primary_settled:
            # No hedge fired: identical to the sequential path.
            return self._settle_hedge_slot(
                prompt, primary, outcomes["primary"], candidates, 1
            )
        self._pool.record_outcome(hedge.name, OUTCOME_HEDGE)
        obs.event(
            "backend.hedge",
            kind=prompt.kind,
            primary=primary.name,
            hedge=hedge.name,
            after_ms=self._hedge_after_ms,
        )
        threading.Thread(target=run, args=("hedge", hedge), daemon=True).start()

        def resolved() -> bool:
            if len(outcomes) == 2:
                return True
            return any(
                isinstance(settled, Completion)
                for settled, _ in outcomes.values()
            )

        with cond:
            cond.wait_for(resolved)
            snapshot = dict(outcomes)
        # Primary preference: when both settled (or only the primary did),
        # its outcome decides first; the hedge only wins while the primary
        # is still in flight or has failed.
        primary_outcome = snapshot.get("primary")
        hedge_outcome = snapshot.get("hedge")
        if primary_outcome is not None and isinstance(
            primary_outcome[0], Completion
        ):
            if hedge_outcome is not None:
                self._discard_hedge_slot(hedge, hedge_outcome)
            return self._settle_hedge_slot(
                prompt, primary, primary_outcome, candidates, 1
            )
        if hedge_outcome is not None and isinstance(
            hedge_outcome[0], Completion
        ):
            settled, duration_ms = hedge_outcome
            self._pool.note_success(hedge)
            self._pool.record_outcome(hedge.name, OUTCOME_OK, duration_ms)
            self._pool.record_outcome(hedge.name, OUTCOME_HEDGE_WIN)
            if primary_outcome is not None:
                self._discard_hedge_slot(primary, primary_outcome)
            return settled
        # Both settled with errors: account for each, then continue the
        # ordinary sequential failover over the remaining candidates.
        assert primary_outcome is not None and hedge_outcome is not None
        last_error: Optional[LLMError] = None
        for backend, (settled, _) in (
            (primary, primary_outcome),
            (hedge, hedge_outcome),
        ):
            assert isinstance(settled, LLMError)
            if not isinstance(settled, (TransientLLMError, CircuitOpenError)):
                self._pool.note_failure(backend)
                self._pool.record_outcome(backend.name, OUTCOME_ERROR)
                raise settled
            self._pool.note_failure(backend)
            self._pool.record_outcome(
                backend.name,
                OUTCOME_REJECTED
                if isinstance(settled, CircuitOpenError)
                else OUTCOME_ERROR,
            )
            last_error = settled
        rest = list(candidates[2:])
        if rest:
            self._pool.record_outcome(rest[0].name, OUTCOME_FAILOVER)
            return self._complete_sequential(prompt, rest)
        assert last_error is not None
        raise last_error

    def _settle_hedge_slot(
        self,
        prompt: Prompt,
        backend: Backend,
        outcome: tuple[Union[Completion, LLMError], float],
        candidates: Sequence[Backend],
        next_index: int,
    ) -> Completion:
        """Resolve one already-settled slot exactly like the sequential
        path would have: success returns, transient failure fails over to
        the remaining candidates, fatal errors propagate."""
        settled, duration_ms = outcome
        if isinstance(settled, Completion):
            self._pool.note_success(backend)
            self._pool.record_outcome(backend.name, OUTCOME_OK, duration_ms)
            return settled
        self._pool.note_failure(backend)
        if not isinstance(settled, (TransientLLMError, CircuitOpenError)):
            self._pool.record_outcome(backend.name, OUTCOME_ERROR)
            raise settled
        self._pool.record_outcome(
            backend.name,
            OUTCOME_REJECTED
            if isinstance(settled, CircuitOpenError)
            else OUTCOME_ERROR,
        )
        rest = list(candidates[next_index:])
        if not rest:
            raise settled
        self._pool.record_outcome(rest[0].name, OUTCOME_FAILOVER)
        obs.event(
            "backend.failover",
            kind=prompt.kind,
            from_backend=backend.name,
            to_backend=rest[0].name,
            error=type(settled).__name__,
        )
        return self._complete_sequential(prompt, rest)

    def _discard_hedge_slot(
        self,
        backend: Backend,
        outcome: tuple[Union[Completion, LLMError], float],
    ) -> None:
        """Account for the losing slot's settled outcome (result dropped)."""
        settled, duration_ms = outcome
        if isinstance(settled, Completion):
            self._pool.note_success(backend)
            self._pool.record_outcome(backend.name, OUTCOME_OK, duration_ms)
        else:
            self._pool.note_failure(backend)
            self._pool.record_outcome(
                backend.name,
                OUTCOME_REJECTED
                if isinstance(settled, CircuitOpenError)
                else OUTCOME_ERROR,
            )


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


def parse_route_map(text: str, names: Sequence[str]) -> dict[str, str]:
    """Parse ``--route-map kind=backend,...`` against the pool's names."""
    route_map: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, name = part.partition("=")
        kind, name = kind.strip(), name.strip()
        if not sep or not kind or not name:
            raise ValueError(
                f"malformed route map entry {part!r}; expected kind=backend"
            )
        canonical = ROUTE_KIND_ALIASES.get(kind)
        if canonical is None:
            valid = ", ".join(sorted(set(ROUTE_KIND_ALIASES)))
            raise ValueError(
                f"unknown prompt kind {kind!r} in route map; one of: {valid}"
            )
        if name not in names:
            raise ValueError(
                f"route map sends {kind!r} to unknown backend {name!r}; "
                f"defined backends: {list(names)}"
            )
        route_map[canonical] = name
    return route_map


def _spec_float(spec: BackendSpec, key: str) -> Optional[float]:
    raw = spec.option(key)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"backend {spec.name!r}: malformed {key}={raw!r}"
        ) from None


def _spec_int(spec: BackendSpec, key: str) -> Optional[int]:
    raw = spec.option(key)
    if raw is None:
        return None
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
    default_breaker_threshold: int = 5,
    default_breaker_reset_ms: float = 30_000.0,
    eject_after: int = 3,
    readmit_after_ms: float = 5000.0,
    probe_interval_ms: Optional[float] = None,
    on_outcome: Optional[Callable[[str, str, float], None]] = None,
    labels: Optional[dict] = None,
) -> BackendPool:
    """Assemble a :class:`BackendPool` from parsed ``--backend`` specs.

    Each backend gets its own :class:`ResilientChatModel` stack and a
    backend-scoped :class:`CircuitBreaker` named after it, so one
    backend's failures never trip a sibling's breaker. ``fault=PROFILE``
    wraps that backend (alone) in a seeded
    :class:`~repro.resilience.faults.FaultInjectingChatModel` for chaos
    runs.
    """
    from repro.llm.simulated import SimulatedLLM
    from repro.resilience.faults import (
        FaultInjectingChatModel,
        resolve_fault_profile,
    )
    from repro.resilience.policies import (
        CircuitBreaker,
        ResilientChatModel,
        RetryPolicy,
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
                timeout_s=_spec_float(spec, "timeout-s") or 30.0,
            )
        fault = spec.option("fault")
        if fault is not None:
            profile = resolve_fault_profile(
                fault, seed=_spec_int(spec, "fault-seed") or seed
            )
            inner = FaultInjectingChatModel(inner, profile)
        breaker = CircuitBreaker(
            failure_threshold=_spec_int(spec, "breaker-threshold")
            or default_breaker_threshold,
            reset_after_ms=_spec_float(spec, "breaker-reset-ms")
            or default_breaker_reset_ms,
            clock=clock,
            name=spec.name,
            labels=dict(labels or {}, backend=spec.name),
        )
        retries = _spec_int(spec, "retries")
        deadline = _spec_float(spec, "deadline-ms")
        stack = ResilientChatModel(
            inner,
            retry=RetryPolicy(
                max_retries=retries if retries is not None else default_retries,
                deadline_ms=deadline
                if deadline is not None
                else default_deadline_ms,
                seed=seed,
            ),
            breaker=breaker,
            clock=clock,
            sleep=sleep,
        )
        backends.append(Backend(spec.name, stack, breaker))
    return BackendPool(
        backends,
        clock=clock,
        eject_after=eject_after,
        readmit_after_ms=readmit_after_ms,
        probe_interval_ms=probe_interval_ms,
        on_outcome=on_outcome,
    )
