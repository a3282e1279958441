"""Simulated LLM backend, prompt library, and cached dispatch.

The HTTP backend and the backend router (with the resilience layer it
wraps each backend in) load on first use of one of their names, so
``import repro`` imports no ``http.server``, and ``python -m
repro.llm.http_backend`` runs a module the package has not imported.
"""

import importlib

from repro.llm.dispatch import (
    CachingChatModel,
    CompletionCache,
    canonical_prompt_key,
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
from repro.llm.prompts import (
    feedback_prompt,
    nl2sql_prompt,
    render_feedback_demo,
    rewrite_prompt,
    routing_prompt,
)
from repro.llm.simulated import SimulatedLLM, derive_conventions, merge_glossaries

__all__ = [
    "Backend",
    "BackendPool",
    "BackendSpec",
    "CachingChatModel",
    "ChatModel",
    "Completion",
    "CompletionCache",
    "FakeOpenAIServer",
    "HttpChatModel",
    "RoutingChatModel",
    "KIND_FEEDBACK",
    "KIND_NL2SQL",
    "KIND_REWRITE",
    "KIND_ROUTING",
    "Prompt",
    "SimulatedLLM",
    "build_backend_pool",
    "canonical_prompt_key",
    "derive_conventions",
    "feedback_prompt",
    "merge_glossaries",
    "nl2sql_prompt",
    "parse_backend_spec",
    "probe_prompt",
    "render_feedback_demo",
    "rewrite_prompt",
    "routing_prompt",
]

#: Exported names resolved on first access, by the module that holds each.
_LAZY = {
    "FakeOpenAIServer": "repro.llm.http_backend",
    "HttpChatModel": "repro.llm.http_backend",
    "Backend": "repro.llm.router",
    "BackendPool": "repro.llm.router",
    "BackendSpec": "repro.llm.router",
    "RoutingChatModel": "repro.llm.router",
    "build_backend_pool": "repro.llm.router",
    "parse_backend_spec": "repro.llm.router",
    "probe_prompt": "repro.llm.router",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
