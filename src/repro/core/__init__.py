"""FISQL core: the paper's contribution (feedback-infused SQL generation)."""

from repro.core.assistant import Assistant, AssistantResponse
from repro.core.chat import ChatSession, ChatTurn
from repro.core.editor import FeedbackEditor
from repro.core.explain import explain_query, explanation_text
from repro.core.feedback import (
    ADD,
    EDIT,
    FEEDBACK_TYPE_EXAMPLES,
    FEEDBACK_TYPES,
    REMOVE,
    Feedback,
    FeedbackDemoStore,
    Highlight,
)
from repro.core.linking import SchemaLinker
from repro.core.nl2sql import Nl2SqlModel, Nl2SqlPrediction
from repro.core.retrieval import DemonstrationRetriever
from repro.core.rewrite import QueryRewriteBaseline, RewriteStep
from repro.core.routing import FeedbackRouter, classify_feedback
from repro.core.semparse import ParserConfig, SemanticParser
from repro.core.session import (
    CorrectionOutcome,
    FisqlPipeline,
    Revision,
    RoundRecord,
)
from repro.core.user import AnnotatorConfig, SimulatedAnnotator

__all__ = [
    "ADD",
    "EDIT",
    "FEEDBACK_TYPES",
    "FEEDBACK_TYPE_EXAMPLES",
    "REMOVE",
    "AnnotatorConfig",
    "Assistant",
    "AssistantResponse",
    "ChatSession",
    "ChatTurn",
    "CorrectionOutcome",
    "DemonstrationRetriever",
    "Feedback",
    "FeedbackDemoStore",
    "FeedbackEditor",
    "FeedbackRouter",
    "FisqlPipeline",
    "Highlight",
    "Nl2SqlModel",
    "Nl2SqlPrediction",
    "ParserConfig",
    "QueryRewriteBaseline",
    "Revision",
    "RewriteStep",
    "RoundRecord",
    "SchemaLinker",
    "SemanticParser",
    "SimulatedAnnotator",
    "classify_feedback",
    "explain_query",
    "explanation_text",
]
