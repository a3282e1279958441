"""The FISQL session server: JSON-over-HTTP on the stdlib, no deps.

Two layers:

* :class:`ServeApp` — the transport-independent request handler. It owns
  the database catalog, the :class:`~repro.serve.sessions.SessionManager`,
  and one resilience stack *per tenant*; ``handle()`` maps
  ``(method, path, body)`` to ``(status, content-type, body bytes)``.
  Tests and the in-process client transport call it directly, so every
  behaviour is exercisable without binding a port.
* :class:`ServeHTTPServer` — a ``ThreadingHTTPServer`` whose handler is a
  thin shim over ``app.handle``; one OS thread per in-flight request.

Routes::

    POST   /sessions                  open a session        -> 201
    GET    /sessions                  list resident ids     -> 200
    GET    /sessions/{id}             session info          -> 200
    DELETE /sessions/{id}             close a session       -> 200
    POST   /sessions/{id}/ask         fresh question        -> 200
    POST   /sessions/{id}/feedback    feedback on answer    -> 200
    GET    /sessions/{id}/transcript  full conversation     -> 200
    GET    /healthz                   liveness + residency  -> 200
    GET    /readyz                    readiness + breakers  -> 200/503
    GET    /metrics                   Prometheus exposition -> 200
    GET    /statusz                   live telemetry (JSON) -> 200

**Correlation ids.** Every request runs under a request id — honored from
a well-formed ``X-Request-Id`` header, minted otherwise — bound in a
context-local (:mod:`repro.obs.context`) for the whole dispatch, so spans,
structured events (cache lookups included), and journal appends all
carry it; metric labels do not, so ``/metrics`` stays bounded. The
id is echoed back in the ``X-Request-Id`` response header (never in the
body: response bytes stay transport-independent).

**Telemetry.** The app owns a :class:`~repro.obs.telemetry.TelemetryHub`
(windowed per-route/per-tenant latency percentiles, SLO attainment and
error-budget burn against the policy's latency objective) regardless of
whether the global ``obs`` switch is on; ``/statusz`` serves its snapshot
and ``/metrics`` folds it into the Prometheus page.

**Tenant isolation.** Each tenant gets its own
:class:`~repro.resilience.ResilientChatModel` (retry/deadline) around the
shared base model, with a *private* circuit breaker: a failing tenant's
breaker trips to 503 ``circuit_open`` while every other tenant keeps
completing — one noisy tenant cannot starve the rest.

**Graceful drain.** ``begin_drain()`` flips the app into drain mode: new
mutating requests are refused with 503 ``draining`` (``/healthz`` reports
``"draining"``), in-flight requests run to completion, and
``await_idle()`` blocks until the last one finishes. ``run_server``
wires SIGINT/SIGTERM to exactly that sequence before closing the socket.
"""

from __future__ import annotations

import io
import math
import re
import signal
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple

from repro import obs
from repro.core.chat import ChatSession
from repro.core.nl2sql import Nl2SqlModel
from repro.core.retrieval import DemonstrationRetriever
from repro.durability.journal import RunJournal
from repro.errors import CircuitOpenError, LLMError, OverloadError, ReproError
from repro.llm.dispatch import CachingChatModel, CompletionCache
from repro.serve.overload import LoadShedGate
from repro.llm.interface import ChatModel
from repro.llm.router import BackendPool, RoutingChatModel
from repro.llm.simulated import SimulatedLLM
from repro.obs.promtext import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.telemetry import SloPolicy, TelemetryHub
from repro.resilience import CircuitBreaker, ResilientChatModel, RetryPolicy
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    AskRequest,
    CreateSessionRequest,
    FeedbackRequest,
    ProtocolError,
    answer_view,
    error_payload,
    json_decode,
    json_encode,
    normalize_idempotency_key,
    normalize_request_id,
    turn_view,
)
from repro.semcache.store import SemanticAnswerCache
from repro.serve.sessions import (
    SessionLimitError,
    SessionManager,
    SessionRecord,
    UnknownSessionError,
)
from repro.sql.engine import Database

JSON = "application/json"
TEXT = "text/plain; charset=utf-8"

#: Seconds ``run_server`` waits for in-flight requests after a signal;
#: the drain 503's ``Retry-After`` points past it.
DEFAULT_DRAIN_GRACE = 10.0

#: Hard ceiling on request bodies when no ``--max-body-bytes`` is set.
#: A ``Content-Length`` is attacker-controlled input that the transport
#: would otherwise trust with an allocation, so "unlimited" is never the
#: default; real protocol traffic is a few KB.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024


def _retry_after_header(seconds: float) -> str:
    """``Retry-After`` wants integral seconds; round up, floor at 1."""
    return str(max(1, math.ceil(seconds)))


@dataclass(frozen=True)
class TenantPolicy:
    """Resilience + dispatch configuration, applied to each tenant's stack.

    The overload knobs feed the app's :class:`LoadShedGate`:
    ``max_inflight_total``/``max_inflight_per_tenant`` cap concurrent
    LLM-bound requests (503 ``overloaded`` / 429 ``tenant_overloaded``),
    and ``request_deadline_ms`` sheds requests that queued too long behind
    a busy session (503 ``deadline_exceeded``).
    """

    max_retries: int = 2
    deadline_ms: Optional[float] = None
    max_inflight_total: Optional[int] = None
    max_inflight_per_tenant: Optional[int] = None
    request_deadline_ms: Optional[float] = None
    #: Per-tenant latency objective for /statusz SLO accounting: ``slo_target``
    #: of a tenant's requests should finish under ``slo_latency_ms`` (and not
    #: 5xx). ``None`` keeps the default objective (500 ms).
    slo_latency_ms: Optional[float] = None
    slo_target: float = 0.95

    def slo(self) -> SloPolicy:
        """The telemetry-plane SLO this policy configures."""
        if self.slo_latency_ms is None:
            return SloPolicy(target=self.slo_target)
        return SloPolicy(latency_ms=self.slo_latency_ms, target=self.slo_target)


@dataclass
class CatalogEntry:
    """One hosted database plus the demo retriever its sessions share."""

    database: Database
    retriever: Optional[DemonstrationRetriever] = None

    def model(self, llm: ChatModel) -> Nl2SqlModel:
        """The NL2SQL model a session over this database asks."""
        return Nl2SqlModel(llm=llm, retriever=self.retriever)


def context_catalog(context) -> dict[str, CatalogEntry]:
    """Every database of an experiment context, as ``serve`` hosts it.

    SPIDER databases share the SPIDER train-pool retriever, AEP
    databases the in-house demo retriever — the same RAG stacks the
    batch experiments use, preloaded once and shared read-only by
    every session.
    """
    catalog: dict[str, CatalogEntry] = {}
    spider_retriever = context.spider_assistant_model().retriever
    for db_id, database in context.spider.benchmark.databases.items():
        catalog[db_id] = CatalogEntry(database, spider_retriever)
    aep_retriever = context.aep_assistant_model().retriever
    for db_id, database in context.aep_benchmark.databases.items():
        catalog.setdefault(db_id, CatalogEntry(database, aep_retriever))
    return catalog


class ServeApp:
    """Transport-independent request handling for the session server."""

    def __init__(
        self,
        catalog: dict[str, CatalogEntry],
        llm: Optional[ChatModel] = None,
        manager: Optional[SessionManager] = None,
        policy: TenantPolicy = TenantPolicy(),
        llm_factory: Optional[Callable[[str], ChatModel]] = None,
        clock: Callable[[], float] = time.monotonic,
        cache: Optional[CompletionCache] = None,
        journal: Optional[RunJournal] = None,
        request_id_factory: Optional[Callable[[], str]] = None,
        pool: Optional[BackendPool] = None,
        semcache: Optional[SemanticAnswerCache] = None,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must host at least one database")
        self._catalog = dict(catalog)
        self._base_llm = llm or SimulatedLLM()
        # `manager or ...` would discard an *empty* manager (len() == 0
        # makes it falsy); test for None explicitly.
        self._manager = manager if manager is not None else SessionManager()
        self._policy = policy
        self._pool = pool
        self._llm_factory = llm_factory or self._default_llm_factory
        self._clock = clock
        self._telemetry = TelemetryHub(clock=clock, slo=policy.slo())
        if pool is not None:
            # Per-backend outcome/latency feed for the live telemetry plane.
            pool.set_outcome_hook(self._telemetry.record_backend)
        self._shared_cache = cache
        if cache is not None and pool is None:
            # One completion cache shared by every tenant stack, with its
            # hit/miss feed wired into the live telemetry. With a backend
            # pool the cache instead wraps each tenant's router facade
            # (cache sits *above* the router) — see the factory.
            self._base_llm = CachingChatModel(
                self._base_llm, cache, on_lookup=self._telemetry.record_cache
            )
        self._semcache = semcache
        if semcache is not None:
            # Semantic hit/miss/bypass feed for the windowed telemetry
            # (the cache panel in `top`, semcache rates on /statusz).
            semcache.set_outcome_hook(self._telemetry.record_semcache)
        self._journal = journal
        self._request_id_factory = request_id_factory or obs.new_request_id
        self._tenant_llms: dict[str, ChatModel] = {}
        self._tenant_lock = threading.Lock()
        self._gate = LoadShedGate(
            max_inflight=policy.max_inflight_total,
            max_inflight_per_tenant=policy.max_inflight_per_tenant,
            deadline_ms=policy.request_deadline_ms,
            clock=clock,
        )
        self._draining = False
        self._inflight = 0
        self._idle = threading.Condition()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_context(cls, context, **kwargs) -> "ServeApp":
        """Host every database of an experiment context
        (:func:`context_catalog`), answering with its model."""
        kwargs.setdefault("llm", context.llm)
        return cls(context_catalog(context), **kwargs)

    @property
    def manager(self) -> SessionManager:
        return self._manager

    @property
    def databases(self) -> list[str]:
        return sorted(self._catalog)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def gate(self) -> LoadShedGate:
        return self._gate

    @property
    def telemetry(self) -> TelemetryHub:
        return self._telemetry

    @property
    def journal(self) -> Optional[RunJournal]:
        return self._journal

    @property
    def pool(self) -> Optional[BackendPool]:
        """The shared backend pool (None for single-model serving)."""
        return self._pool

    @property
    def semcache(self) -> Optional[SemanticAnswerCache]:
        """The shared semantic answer store (None when not enabled)."""
        return self._semcache

    # -- tenant isolation -----------------------------------------------------------

    def _default_llm_factory(self, tenant: str) -> ChatModel:
        policy = self._policy
        model: ChatModel
        if self._pool is not None:
            # Routed serving: the pool's backends already carry their own
            # resilient stacks and backend-scoped breakers; each tenant
            # gets a cheap routing facade, with the shared cache *above*
            # the router (a cache hit must never touch — or fail over — a
            # backend).
            model = RoutingChatModel(self._pool)
            if self._shared_cache is not None:
                model = CachingChatModel(
                    model,
                    self._shared_cache,
                    on_lookup=self._telemetry.record_cache,
                )
        else:
            model = ResilientChatModel(
                self._base_llm,
                retry=RetryPolicy(
                    max_retries=policy.max_retries,
                    deadline_ms=policy.deadline_ms,
                ),
                breaker=CircuitBreaker(
                    clock=self._clock,
                    name=tenant,
                    labels={"tenant": tenant},
                ),
                clock=self._clock,
            )
        return model

    def llm_for_tenant(self, tenant: str) -> ChatModel:
        """The tenant's resilience stack (created on first use)."""
        with self._tenant_lock:
            if tenant not in self._tenant_llms:
                self._tenant_llms[tenant] = self._llm_factory(tenant)
                obs.count("serve.tenants.created")
            return self._tenant_llms[tenant]

    # -- drain ----------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting mutating requests; in-flight ones complete."""
        self._draining = True
        obs.count("serve.drain.begun")

    def await_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    # -- dispatch ---------------------------------------------------------------------

    _ROUTES = [
        (re.compile(r"^/healthz$"), "healthz", {"GET"}),
        (re.compile(r"^/readyz$"), "readyz", {"GET"}),
        (re.compile(r"^/metrics$"), "metrics", {"GET"}),
        (re.compile(r"^/statusz$"), "statusz", {"GET"}),
        (re.compile(r"^/sessions$"), "sessions", {"GET", "POST"}),
        (re.compile(r"^/sessions/([^/]+)$"), "session", {"GET", "DELETE"}),
        (re.compile(r"^/sessions/([^/]+)/ask$"), "ask", {"POST"}),
        (re.compile(r"^/sessions/([^/]+)/feedback$"), "feedback", {"POST"}),
        (
            re.compile(r"^/sessions/([^/]+)/transcript$"),
            "transcript",
            {"GET"},
        ),
    ]

    def handle(
        self, method: str, path: str, raw_body: bytes = b""
    ) -> Tuple[int, str, bytes]:
        """One request in, ``(status, content_type, body_bytes)`` out."""
        status, ctype, body, _headers = self.handle_request(
            method, path, raw_body
        )
        return status, ctype, body

    def handle_request(
        self,
        method: str,
        path: str,
        raw_body: bytes = b"",
        headers: Optional[dict] = None,
    ) -> Tuple[int, str, bytes, dict]:
        """Full request handling: the 3-tuple plus response headers.

        The caller's ``X-Request-Id`` (any header-name casing) is honored
        when well-formed, else a fresh id is minted; either way the id is
        bound as the current request context for the whole dispatch and
        echoed back in the response headers.
        """
        arrived_at = self._clock()
        request_id = None
        idempotency_key = None
        if headers:
            for name, value in headers.items():
                lowered = str(name).lower()
                if lowered == "x-request-id" and request_id is None:
                    request_id = normalize_request_id(str(value))
                elif lowered == "idempotency-key":
                    idempotency_key = str(value)
        if request_id is None:
            request_id = self._request_id_factory()
        route, session_id, allowed = self._match(path)
        with self._idle:
            self._inflight += 1
        try:
            with obs.request_context(request_id):
                with obs.span(
                    "serve.request",
                    route=route,
                    method=method,
                    request_id=request_id,
                ) as sp:
                    with obs.timer("serve.latency_ms", route=route):
                        status, ctype, body, extra_headers = self._dispatch(
                            route,
                            allowed,
                            method,
                            session_id,
                            raw_body,
                            arrived_at,
                            idempotency_key,
                        )
                    sp.set("status", status)
                obs.count("serve.requests", route=route, status=status)
                duration_ms = (self._clock() - arrived_at) * 1000.0
                tenant = (
                    self._manager.peek_tenant(session_id)
                    if session_id is not None
                    else None
                )
                self._telemetry.record_request(
                    route, tenant, status, duration_ms
                )
                obs.event(
                    "serve.request",
                    route=route,
                    method=method,
                    status=status,
                    duration_ms=round(duration_ms, 3),
                    tenant=tenant,
                )
            return (
                status,
                ctype,
                body,
                dict(extra_headers, **{"X-Request-Id": request_id}),
            )
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _match(self, path: str):
        for pattern, route, allowed in self._ROUTES:
            match = pattern.match(path)
            if match:
                groups = match.groups()
                return route, (groups[0] if groups else None), allowed
        return "unknown", None, set()

    def _dispatch(
        self,
        route: str,
        allowed: set,
        method: str,
        session_id: Optional[str],
        raw_body: bytes,
        arrived_at: float,
        idempotency_key: Optional[str] = None,
    ) -> Tuple[int, str, bytes, dict]:
        try:
            if idempotency_key is not None:
                idempotency_key = normalize_idempotency_key(idempotency_key)
            if route == "unknown":
                raise ProtocolError(404, "not_found", "no such route")
            if method not in allowed:
                raise ProtocolError(
                    405,
                    "method_not_allowed",
                    f"{method} not allowed here",
                    {"allowed": sorted(allowed)},
                )
            if self._draining and method in ("POST", "DELETE"):
                raise ProtocolError(
                    503,
                    "draining",
                    "server is draining; not accepting new work",
                )
            if route == "healthz":
                return self._json(200, self._health_payload())
            if route == "readyz":
                ready, payload = self._ready_payload()
                return self._json(200 if ready else 503, payload)
            if route == "metrics":
                return (
                    200,
                    PROMETHEUS_CONTENT_TYPE,
                    self._metrics_text().encode("utf-8"),
                    {},
                )
            if route == "statusz":
                return self._json(200, self._statusz_payload())
            if route == "sessions" and method == "POST":
                return self._create_session(raw_body)
            if route == "sessions":
                return self._json(
                    200, {"sessions": sorted(self._manager.ids())}
                )
            assert session_id is not None
            if route == "session" and method == "DELETE":
                if not self._manager.remove(session_id):
                    raise UnknownSessionError(session_id)
                return self._json(200, {"deleted": session_id})
            if route == "session":
                return self._session_info(session_id)
            if route in ("ask", "feedback"):
                return self._turn(
                    route, session_id, raw_body, arrived_at, idempotency_key
                )
            if route == "transcript":
                return self._transcript(session_id)
            raise ProtocolError(404, "not_found", "no such route")
        except ProtocolError as error:
            headers = {}
            if error.status == 503 and error.code == "draining":
                # Point retries past the drain grace: by then this
                # replica is gone and the balancer has moved on.
                headers["Retry-After"] = _retry_after_header(
                    DEFAULT_DRAIN_GRACE
                )
            return self._json(error.status, error.payload(), headers)
        except UnknownSessionError as error:
            return self._json(
                404,
                error_payload(
                    "unknown_session",
                    str(error),
                    session_id=error.session_id,
                ),
            )
        except SessionLimitError as error:
            return self._json(503, error_payload("capacity", str(error)))
        except OverloadError as error:
            # Per-tenant flooding is the caller's fault (429); global
            # capacity and deadlines are the server's (503).
            status = 429 if error.reason == "tenant_overloaded" else 503
            return self._json(
                status,
                error_payload(error.reason, str(error), retryable=True),
                {"Retry-After": _retry_after_header(error.retry_after_s)},
            )
        except CircuitOpenError as error:
            return self._json(
                503, error_payload("circuit_open", str(error))
            )
        except LLMError as error:
            return self._json(
                502,
                error_payload(
                    "llm_unavailable",
                    f"{type(error).__name__}: {error}",
                ),
            )
        except ReproError as error:
            return self._json(
                409,
                error_payload(
                    "conflict", f"{type(error).__name__}: {error}"
                ),
            )
        except Exception as error:  # noqa: BLE001 - last-resort 500
            obs.count("serve.internal_errors")
            return self._json(
                500,
                error_payload(
                    "internal", f"{type(error).__name__}: {error}"
                ),
            )

    @staticmethod
    def _json(
        status: int, payload: dict, headers: Optional[dict] = None
    ) -> Tuple[int, str, bytes, dict]:
        return status, JSON, json_encode(payload), dict(headers or {})

    # -- route handlers ---------------------------------------------------------------

    def _health_payload(self) -> dict:
        stats = self._manager.stats()
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "databases": len(self._catalog),
            "sessions": stats,
        }

    def _ready_payload(self) -> Tuple[bool, dict]:
        """Readiness: drain state, shed-gate saturation, breaker states.

        Not ready while draining (load balancers should stop routing
        here). Open breakers and gate stats are reported for operators but
        do not flip readiness: one failing tenant must not eject the
        server from rotation for everyone else.
        """
        ready = not self._draining
        payload = {
            "ready": ready,
            "draining": self._draining,
            "inflight": self._inflight,
            "gate": self._gate.stats(),
            "breakers": self._breaker_states(),
        }
        if self._pool is not None:
            # Backend health is operator information, like breakers: even
            # an all-ejected pool must not flip readiness — requests fail
            # fast with 503 circuit_open while the breakers' half-open
            # probes work on readmission.
            payload["backends"] = self._pool.health_snapshot()
        return ready, payload

    def _statusz_payload(self) -> dict:
        """The live-operations view ``fisql-repro top`` renders."""
        payload = {
            "ready": not self._draining,
            "draining": self._draining,
            "protocol": PROTOCOL_VERSION,
            "sessions": self._manager.stats(),
            "gate": self._gate.stats(),
            "breakers": self._breaker_states(),
            "telemetry": self._telemetry.snapshot(),
        }
        if self._pool is not None:
            payload["backends"] = self._pool.health_snapshot()
        if self._semcache is not None:
            payload["semcache"] = self._semcache.statusz_view()
        return payload

    def _breaker_states(self) -> dict[str, str]:
        with self._tenant_lock:
            models = dict(self._tenant_llms)
        states: dict[str, str] = {}
        for tenant, model in models.items():
            breaker = getattr(model, "breaker", None)
            if breaker is not None:
                states[tenant] = breaker.state
        return states

    def _metrics_text(self) -> str:
        """Prometheus text exposition: run-report metrics (when the obs
        switch is on) folded with the always-on telemetry hub. Valid
        exposition even with observability disabled — ``fisql_serve_up``
        is always present, so scrapers never choke on a prose fallback."""
        snapshot = obs.snapshot() if obs.is_enabled() else None
        backends = (
            self._pool.health_snapshot() if self._pool is not None else None
        )
        return render_prometheus(
            snapshot, self._telemetry.snapshot(), backends=backends
        )

    def _create_session(self, raw_body: bytes) -> Tuple[int, str, bytes]:
        request = CreateSessionRequest.from_payload(json_decode(raw_body))
        entry = self._catalog.get(request.db)
        if entry is None:
            raise ProtocolError(
                404,
                "unknown_database",
                f"no hosted database {request.db!r}",
                {"db": request.db},
            )
        llm = self.llm_for_tenant(request.tenant)

        def chat_factory() -> ChatSession:
            return ChatSession(
                entry.database,
                entry.model(llm),
                llm=llm,
                routing=request.routing,
                semcache=self._semcache,
                tenant=request.tenant,
            )

        record = self._manager.create(
            chat_factory,
            tenant=request.tenant,
            db_id=request.db,
            resume_id=request.resume,
        )
        payload = {"session": self._session_view(record)}
        if request.resume is not None:
            payload["restored"] = True
        return self._json(201, payload)

    @staticmethod
    def _session_view(record: SessionRecord) -> dict:
        return {
            "id": record.session_id,
            "db": record.db_id,
            "tenant": record.tenant,
            "turns": len(record.chat.turns),
        }

    def _session_info(self, session_id: str) -> Tuple[int, str, bytes]:
        with self._manager.acquire(session_id) as record:
            return self._json(200, {"session": self._session_view(record)})

    def _peek_tenant(self, session_id: str) -> str:
        """The tenant for shed accounting (without blocking on the session)."""
        tenant = self._manager.peek_tenant(session_id)
        if tenant is None:
            raise UnknownSessionError(session_id)
        return tenant

    def _replay(
        self, record: SessionRecord, key: str, route: str
    ) -> Optional[Tuple[int, str, bytes, dict]]:
        """The stored response for a seen key, or None on first sight.

        Replays serve the original bytes — same status, same body — so a
        retry is indistinguishable from the first response except for the
        ``Idempotency-Replayed`` marker header, and neither the chat state
        nor the journal moves a second time.
        """
        entry = record.idempotency.lookup(key)
        if entry is None:
            return None
        obs.count("serve.idempotent_replays", route=route)
        obs.event(
            "serve.idempotent_replay",
            session=record.session_id,
            route=route,
            key=key,
        )
        return (
            entry["status"],
            JSON,
            entry["body"].encode("utf-8"),
            {"Idempotency-Replayed": "true"},
        )

    def _turn(
        self,
        route: str,
        session_id: str,
        raw_body: bytes,
        arrived_at: float,
        idempotency_key: Optional[str] = None,
    ) -> Tuple[int, str, bytes]:
        """One ``ask`` or ``feedback`` turn on a session."""
        ask = route == "ask"
        payload = json_decode(raw_body)
        request = (AskRequest if ask else FeedbackRequest).from_payload(payload)
        with self._gate.admit(self._peek_tenant(session_id)):
            with self._manager.acquire(session_id) as record:
                if idempotency_key is not None:
                    replay = self._replay(record, idempotency_key, route)
                    if replay is not None:
                        return replay
                # The session lock can queue us behind a slow turn; shed
                # rather than start work the caller stopped waiting for.
                self._gate.check_deadline(arrived_at)
                if ask:
                    response = record.chat.ask(request.question)
                elif record.chat.current_sql is None:
                    raise ProtocolError(
                        409,
                        "no_question",
                        "feedback before any question was asked",
                    )
                else:
                    response = record.chat.give_feedback(
                        request.feedback, highlight=request.highlight
                    )
                obs.count(
                    "serve.asks" if ask else "serve.feedbacks",
                    tenant=record.tenant,
                )
                self._journal_turn(record, route)
                result = self._json(
                    200,
                    {
                        "session_id": record.session_id,
                        "answer": answer_view(response),
                        "turns": len(record.chat.turns),
                    },
                )
                if idempotency_key is not None:
                    record.idempotency.store(
                        idempotency_key, route, result[0], result[2]
                    )
                return result

    def _journal_turn(self, record: SessionRecord, route: str) -> None:
        """Durably record one completed turn (when serving with a journal).

        The append runs inside the request context, so the journal line
        carries the request's correlation id.
        """
        if self._journal is None:
            return
        turns = len(record.chat.turns)
        self._journal.append(
            f"serve.turn/{record.session_id}/{turns}",
            "serve.turn",
            {
                "session": record.session_id,
                "tenant": record.tenant,
                "route": route,
                "turns": turns,
            },
        )

    def _transcript(self, session_id: str) -> Tuple[int, str, bytes]:
        with self._manager.acquire(session_id) as record:
            return self._json(
                200,
                {
                    "session": self._session_view(record),
                    "turns": [turn_view(t) for t in record.chat.turns],
                    "transcript": record.chat.transcript(),
                },
            )


# -- HTTP layer --------------------------------------------------------------------


class _DeadlineReader(io.RawIOBase):
    """Socket reads that share one deadline instead of one timeout each.

    A socket timeout bounds each ``recv``, so a peer that drips a byte
    just inside it holds the connection, and its thread, for as long as
    it likes. Installed under ``rfile``, this reader gives each read only
    the time left before the deadline; :meth:`arm` starts a fresh one
    before the request head and again before the body.
    """

    def __init__(self, sock: socket.socket, budget_s: float) -> None:
        self._sock = sock
        self._budget = budget_s
        self.arm()

    def arm(self) -> None:
        self._deadline = time.monotonic() + self._budget

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request read deadline passed")
        self._sock.settimeout(remaining)
        try:
            return self._sock.recv_into(buffer)
        finally:
            # Writes keep the full budget per send.
            self._sock.settimeout(self._budget)


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin shim: read the body, delegate to the app, write the reply.

    Transport defenses live here, before the app sees a byte:

    * **Read deadline** — when the server carries ``read_timeout_ms``,
      the whole request head must arrive within it, and then the whole
      body within it again (:class:`_DeadlineReader`). A slow-loris peer
      trickling its head is cut off by ``handle_one_request``'s own
      timeout handling; one that stalls or trickles mid-body gets a 408
      and the connection is closed.
    * **Body cap** — a ``Content-Length`` beyond ``max_body_bytes`` is
      refused with 413 *without reading the body*; a malformed or
      negative one is a 400.
    * **Torn body** — a peer that closes mid-body yields a short read;
      that is a 400, never a half-request handed to the app.
    """

    protocol_version = "HTTP/1.1"
    server_version = "fisql-serve"
    # The head and the body go out as two writes; with Nagle's algorithm
    # on, the body would wait for the client's delayed ACK (~40 ms on
    # every keep-alive turn).
    disable_nagle_algorithm = True
    _reader: Optional[_DeadlineReader] = None

    def setup(self) -> None:
        timeout_ms = self.server.read_timeout_ms
        if timeout_ms is not None:
            self.timeout = timeout_ms / 1000.0
        super().setup()
        if timeout_ms is not None:
            # The stdlib rfile holds a reference that keeps the socket
            # open after close(); release it before swapping readers.
            self.rfile.close()
            self._reader = _DeadlineReader(self.connection, self.timeout)
            self.rfile = io.BufferedReader(self._reader)

    def handle_one_request(self) -> None:
        if self._reader is not None:
            self._reader.arm()
        super().handle_one_request()

    def _reject(self, status: int, code: str, message: str) -> None:
        """Refuse at the transport layer, mirroring the app's error JSON."""
        obs.count("serve.transport.rejected", reason=code)
        body = json_encode(error_payload(code, message))
        # The request body was not (fully) consumed: the connection's
        # framing is unknown, so it must not be reused.
        self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", JSON)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # peer already gone; nothing to tell them

    def _dispatch(self) -> None:
        length_header = self.headers.get("Content-Length")
        length = 0
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                length = -1
            if length < 0:
                self._reject(
                    400,
                    "bad_content_length",
                    f"malformed Content-Length: {length_header!r}",
                )
                return
        limit = getattr(self.server, "max_body_bytes", None)
        if limit is None:
            limit = DEFAULT_MAX_BODY_BYTES
        if length > limit:
            self._reject(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
            )
            return
        if self._reader is not None:
            self._reader.arm()
        try:
            raw = self.rfile.read(length) if length > 0 else b""
        except (TimeoutError, socket.timeout):
            self._reject(
                408, "read_timeout", "timed out reading the request body"
            )
            return
        if len(raw) < length:
            self._reject(
                400,
                "incomplete_body",
                f"connection closed after {len(raw)} of {length} body bytes",
            )
            return
        status, ctype, body, extra_headers = self.server.app.handle_request(
            self.command, self.path, raw, headers=dict(self.headers.items())
        )
        try:
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            for name, value in extra_headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            self.close_connection = True

    do_GET = _dispatch
    do_POST = _dispatch
    do_DELETE = _dispatch

    def log_message(self, *_args) -> None:  # default stderr chatter off
        pass


class ServeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        app: ServeApp,
        read_timeout_ms: Optional[float] = None,
        max_body_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(address, _RequestHandler)
        self.app = app
        self.read_timeout_ms = read_timeout_ms
        self.max_body_bytes = max_body_bytes

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_in_thread(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 0,
    read_timeout_ms: Optional[float] = None,
    max_body_bytes: Optional[int] = None,
):
    """Bind and serve on a daemon thread; returns ``(server, thread)``."""
    server = ServeHTTPServer(
        (host, port),
        app,
        read_timeout_ms=read_timeout_ms,
        max_body_bytes=max_body_bytes,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="fisql-serve", daemon=True
    )
    thread.start()
    return server, thread


def run_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    install_signals: bool = True,
    read_timeout_ms: Optional[float] = None,
    max_body_bytes: Optional[int] = None,
) -> int:
    """Serve until SIGINT/SIGTERM, then drain gracefully and exit 0."""
    server = ServeHTTPServer(
        (host, port),
        app,
        read_timeout_ms=read_timeout_ms,
        max_body_bytes=max_body_bytes,
    )

    def _shutdown() -> None:
        app.begin_drain()
        app.await_idle(timeout=DEFAULT_DRAIN_GRACE)
        server.shutdown()

    def _on_signal(_signum, _frame) -> None:
        threading.Thread(target=_shutdown, daemon=True).start()

    if install_signals and threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _on_signal)
        signal.signal(signal.SIGTERM, _on_signal)

    print(
        f"fisql-serve listening on http://{host}:{server.port} "
        f"({len(app.databases)} databases hosted)"
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    stats = app.manager.stats()
    print(
        "fisql-serve drained: "
        f"{stats['created']} sessions served, {stats['resident']} resident"
    )
    return 0
