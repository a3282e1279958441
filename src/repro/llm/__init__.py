"""Simulated LLM backend, prompt library, and cached dispatch."""

from repro.llm.http_backend import FakeOpenAIServer, HttpChatModel
from repro.llm.router import (
    Backend,
    BackendPool,
    BackendSpec,
    RoutingChatModel,
    build_backend_pool,
    parse_backend_spec,
    probe_prompt,
)
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
