"""Exception hierarchy for the FISQL reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class. Subsystems refine it: the SQL engine raises
:class:`SqlError` subclasses, the dataset generators raise
:class:`DatasetError`, and so on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SqlError(ReproError):
    """Base class for SQL engine errors."""


class LexError(SqlError):
    """Raised when the lexer encounters malformed SQL text."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """Raised when SQL text does not match the supported grammar."""


class CatalogError(SqlError):
    """Raised for unknown tables/columns or schema violations."""


class TypeMismatchError(SqlError):
    """Raised when a value cannot be coerced to a column's declared type."""


class ExecutionError(SqlError):
    """Raised when a syntactically valid query fails during execution."""


class EditError(ReproError):
    """Raised when an AST edit operation cannot be applied."""


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators."""


class PromptError(ReproError):
    """Raised when a prompt cannot be built or understood by the LLM sim."""


class LLMError(ReproError):
    """Base class for chat-model backend failures.

    The resilience layer (:mod:`repro.resilience`) raises and handles this
    family; the pipeline treats any ``LLMError`` that escapes retry as a
    signal to degrade gracefully rather than abort the run.
    """


class TransientLLMError(LLMError):
    """A retryable backend failure (5xx-style blip, dropped connection).

    ``retry_after_ms`` carries the backend's own pacing hint (an HTTP
    ``Retry-After`` header on a 429/503). When set, the retry policy uses
    it as that round's backoff instead of the computed exponential
    schedule, still bounded by the call's deadline budget.
    """

    def __init__(
        self, message: str, retry_after_ms: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class LLMTimeoutError(TransientLLMError):
    """The backend did not answer within the deadline."""


class RateLimitError(TransientLLMError):
    """The backend rejected the call for quota/rate reasons (429-style)."""


class CircuitOpenError(LLMError):
    """The circuit breaker is open; the call was rejected locally.

    Not retryable by the policy that raised it: the breaker exists to stop
    hammering a failing backend, so callers should degrade instead.
    """


class NoHealthyBackendError(CircuitOpenError):
    """Every backend in the routing pool is ejected or circuit-open.

    A :class:`CircuitOpenError` subclass so the serve layer maps it to the
    same 503 fail-fast path as a single open breaker.
    """


class OverloadError(ReproError):
    """The request was shed before doing work: the system is over capacity.

    Raised by the serve layer's load-shedding gate (queue-depth caps,
    request deadlines). Deliberately *not* an :class:`LLMError`: retry
    policies must not burn attempts on a request the system chose to
    reject, and the server maps it to a structured 429/503 instead of a
    502.
    """

    def __init__(self, message: str, reason: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.reason = reason
        #: Suggested client backoff (seconds); the serve layer surfaces it
        #: as a ``Retry-After`` response header on the shed 429/503.
        self.retry_after_s = retry_after_s


class FeedbackError(ReproError):
    """Raised when user feedback cannot be interpreted at all."""
