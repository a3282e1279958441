"""``repro.serve`` — the concurrent interactive-correction session server.

The paper's FISQL is a deployed chat tool, not a batch script: users ask,
read the four-part response, and reply with feedback, live. This package
is that serving layer for the reproduction — a zero-dependency
JSON-over-HTTP service hosting many concurrent
:class:`~repro.core.chat.ChatSession`'s over shared, preloaded database
contexts, instrumented with :mod:`repro.obs` and isolated per tenant via
:mod:`repro.resilience` policies.

Layers:

* :mod:`repro.serve.protocol` — typed request/response payloads, the
  canonical JSON codec, and structured error payloads.
* :mod:`repro.serve.sessions` — thread-safe session registry with
  per-session locks, TTL + LRU eviction, and a max-sessions gate.
* :mod:`repro.serve.server`  — the routes, per-tenant resilience stacks,
  graceful drain, and the stdlib ``ThreadingHTTPServer`` binding.
* :mod:`repro.serve.client`  — a blocking client over a real socket or an
  in-process transport (same bytes either way).

Start one from the CLI with ``fisql-repro serve`` or in code::

    from repro.serve import ServeApp, ServeClient, start_in_thread

    app = ServeApp.from_context(build_context(scale="small"))
    server, _ = start_in_thread(app)
    client = ServeClient.connect(port=server.port)
    session = client.create_session(db="aep")
    client.ask(session["id"], "How many audiences were created in January?")
    client.feedback(session["id"], "we are in 2024")
"""

from repro.serve.client import (
    HttpTransport,
    InProcessTransport,
    ServeClient,
    ServeClientError,
)
from repro.serve.idempotency import IdempotencyIndex
from repro.serve.persistence import SESSION_SCHEMA_VERSION, SessionStore
from repro.serve.protocol import (
    MAX_IDEMPOTENCY_KEY_LENGTH,
    MAX_REQUEST_ID_LENGTH,
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
from repro.serve.server import (
    DEFAULT_DRAIN_GRACE,
    CatalogEntry,
    ServeApp,
    ServeHTTPServer,
    TenantPolicy,
    run_server,
    start_in_thread,
)
from repro.serve.overload import LoadShedGate
from repro.serve.sessions import (
    DEFAULT_MAX_SESSIONS,
    SessionError,
    SessionLimitError,
    SessionManager,
    SessionRecord,
    UnknownSessionError,
)

__all__ = [
    "DEFAULT_DRAIN_GRACE",
    "DEFAULT_MAX_SESSIONS",
    "PROTOCOL_VERSION",
    "AskRequest",
    "CatalogEntry",
    "CreateSessionRequest",
    "FeedbackRequest",
    "HttpTransport",
    "IdempotencyIndex",
    "InProcessTransport",
    "LoadShedGate",
    "MAX_IDEMPOTENCY_KEY_LENGTH",
    "MAX_REQUEST_ID_LENGTH",
    "ProtocolError",
    "SESSION_SCHEMA_VERSION",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeHTTPServer",
    "SessionError",
    "SessionLimitError",
    "SessionManager",
    "SessionRecord",
    "SessionStore",
    "TenantPolicy",
    "UnknownSessionError",
    "answer_view",
    "error_payload",
    "json_decode",
    "json_encode",
    "normalize_idempotency_key",
    "normalize_request_id",
    "run_server",
    "start_in_thread",
    "turn_view",
]
