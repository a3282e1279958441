"""Cross-request semantic answer cache (``repro.semcache``) for ``serve``.

Questions are normalized into canonical :class:`IntentSignature` keys,
scoped by per-tenant schema fingerprints, and served from a bounded,
atomically persisted answer store that sits *above* the completion cache,
the router, and the backends — a hit never touches the LLM tier at all.
Guardrails: feedback rounds and schema-fingerprint changes bypass (never
read, never write), schema mutations invalidate stored entries, and
errored rounds are never cached.

Only chat asks reach the cache. A paraphrase is served the answer stored
for its signature, which can differ from what the model would say, so
the paper's sweeps never consult it; :func:`replay` asks the live model
each logged hit's question again and reports where the two differ.
"""

from repro.semcache.fingerprint import (
    display_fingerprint,
    schema_fingerprint,
)
from repro.semcache.model import SemanticCachingNl2SqlModel
from repro.semcache.replay import (
    read_question_log,
    render_replay_report,
    replay,
)
from repro.semcache.signature import IntentSignature, build_signature
from repro.semcache.store import (
    LOG_FILENAME,
    STORE_FILENAME,
    SemanticAnswerCache,
    SemcacheLookup,
)

__all__ = [
    "IntentSignature",
    "LOG_FILENAME",
    "STORE_FILENAME",
    "SemanticAnswerCache",
    "SemcacheLookup",
    "SemanticCachingNl2SqlModel",
    "build_signature",
    "display_fingerprint",
    "read_question_log",
    "render_replay_report",
    "replay",
    "schema_fingerprint",
]
