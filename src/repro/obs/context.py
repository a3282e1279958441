"""Correlation-ID propagation: one request id across every layer it touches.

A serve request is handled on one thread but fans out across many
subsystems — session handling, the per-tenant resilience stack, the
completion cache, the run journal. Tying those records back to the
request that caused them needs exactly one piece of shared state: the
*current request id*, carried in a :mod:`contextvars` context variable so
it follows the request through nested calls without threading an
argument through every signature.

Usage::

    with request_context(request_id):
        ...  # every obs.span / obs.event / journal append in here is
        ...  # stamped with request_id via current_request_id()

The id is honored from an ``X-Request-Id`` header when the caller sent
one, else minted by :func:`new_request_id`.

Everything here is also safe outside a request: :func:`current_request_id`
returns ``None``, and every consumer treats "no id" as "emit nothing
extra" — which is what keeps batch-run artifacts byte-identical whether or
not this module exists.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

#: The context-local holding the id of the request being served (or None).
_REQUEST_ID: ContextVar[Optional[str]] = ContextVar(
    "fisql_request_id", default=None
)

_counter = itertools.count(1)
_counter_lock = threading.Lock()
_prefix = os.urandom(4).hex()


def new_request_id() -> str:
    """Mint a fresh request id: unique per process, ordered, greppable."""
    with _counter_lock:
        sequence = next(_counter)
    return f"req-{_prefix}-{sequence:06d}"


def deterministic_id_factory(prefix: str = "req") -> Callable[[], str]:
    """A sequential id factory (``req-000001`` ...) for tests and replay."""
    counter = itertools.count(1)
    lock = threading.Lock()

    def make() -> str:
        with lock:
            return f"{prefix}-{next(counter):06d}"

    return make


def current_request_id() -> Optional[str]:
    """The id of the request this code is running on behalf of, or None."""
    return _REQUEST_ID.get()


@contextmanager
def request_context(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``request_id`` as the current request for the enclosed block."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)
