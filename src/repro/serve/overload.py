"""Load shedding for the session server: queue-depth caps and deadlines.

A synchronous threading server degrades badly under overload: every
request gets a thread, every thread contends for session locks and the
LLM, and *all* of them get slow together. :class:`LoadShedGate` keeps the
server honest by refusing work it cannot serve promptly:

* a **global inflight cap** — more than ``max_inflight`` LLM-bound
  requests in flight sheds the newcomer with a 503-shaped
  :class:`~repro.errors.OverloadError` (``overloaded``);
* a **per-tenant inflight cap** — one tenant flooding asks is shed with a
  429-shaped error (``tenant_overloaded``) while other tenants keep
  being admitted: queue-depth isolation, the admission-side complement of
  the per-tenant circuit breakers;
* a **request deadline** — a request that already waited longer than
  ``deadline_ms`` behind a busy session sheds (``deadline_exceeded``)
  instead of doing work whose caller has likely given up.

Shed decisions are O(1) counter checks under one lock; every shed counts
``serve.shed`` labelled by reason.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro import obs
from repro.errors import OverloadError


class LoadShedGate:
    """Admission control over concurrent LLM-bound requests."""

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        max_inflight_per_tenant: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        for name, value in (
            ("max_inflight", max_inflight),
            ("max_inflight_per_tenant", max_inflight_per_tenant),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1: {value}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0: {deadline_ms}")
        self._max_inflight = max_inflight
        self._max_per_tenant = max_inflight_per_tenant
        self._deadline_ms = deadline_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight = 0
        self._per_tenant: dict[str, int] = {}
        self.admitted = 0
        self.shed_total = 0
        self.shed_by_reason: dict[str, int] = {}

    # -- introspection --------------------------------------------------------

    @property
    def deadline_ms(self) -> Optional[float]:
        return self._deadline_ms

    def inflight(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is None:
                return self._inflight
            return self._per_tenant.get(tenant, 0)

    def stats(self) -> dict:
        with self._lock:
            utilization = (
                round(self._inflight / self._max_inflight, 4)
                if self._max_inflight
                else None
            )
            return {
                "inflight": self._inflight,
                "inflight_per_tenant": dict(sorted(self._per_tenant.items())),
                "max_inflight": self._max_inflight,
                "max_inflight_per_tenant": self._max_per_tenant,
                "utilization": utilization,
                "deadline_ms": self._deadline_ms,
                "admitted": self.admitted,
                "shed": dict(self.shed_by_reason),
            }

    def retry_after_s(self, reason: str) -> float:
        """The client-backoff hint attached to a shed (``Retry-After``).

        Capacity sheds point at the request deadline when one is
        configured — by then the queue that shed you has turned over —
        and fall back to one second. A request shed *for* overstaying its
        deadline gets the one-second floor: its slot is already free.
        """
        if reason != "deadline_exceeded" and self._deadline_ms is not None:
            return max(1.0, self._deadline_ms / 1000.0)
        return 1.0

    # -- admission ------------------------------------------------------------

    def _shed_locked(self, reason: str, message: str) -> OverloadError:
        self.shed_total += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        obs.count("serve.shed", reason=reason)
        return OverloadError(
            message, reason=reason, retry_after_s=self.retry_after_s(reason)
        )

    @contextmanager
    def admit(self, tenant: str) -> Iterator[None]:
        """Hold one inflight slot for a tenant's LLM-bound request.

        Raises :class:`OverloadError` instead of entering when a cap is
        hit — the caller never queues behind the overload it would add to.
        """
        with self._lock:
            if (
                self._max_inflight is not None
                and self._inflight >= self._max_inflight
            ):
                raise self._shed_locked(
                    "overloaded",
                    f"server is at capacity ({self._max_inflight} requests "
                    "in flight); retry shortly",
                )
            tenant_inflight = self._per_tenant.get(tenant, 0)
            if (
                self._max_per_tenant is not None
                and tenant_inflight >= self._max_per_tenant
            ):
                raise self._shed_locked(
                    "tenant_overloaded",
                    f"tenant {tenant!r} already has {tenant_inflight} "
                    "requests in flight; slow down",
                )
            self._inflight += 1
            self._per_tenant[tenant] = tenant_inflight + 1
            self.admitted += 1
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1
                remaining = self._per_tenant.get(tenant, 1) - 1
                if remaining <= 0:
                    self._per_tenant.pop(tenant, None)
                else:
                    self._per_tenant[tenant] = remaining

    def check_deadline(self, arrived_at: float) -> None:
        """Shed a request that already overstayed its deadline.

        Called after potentially-blocking waits (the per-session lock):
        a request that queued past ``deadline_ms`` is abandoned before the
        expensive LLM work, not after.
        """
        if self._deadline_ms is None:
            return
        elapsed_ms = (self._clock() - arrived_at) * 1000.0
        if elapsed_ms > self._deadline_ms:
            with self._lock:
                raise self._shed_locked(
                    "deadline_exceeded",
                    f"request waited {elapsed_ms:.0f}ms, past its "
                    f"{self._deadline_ms:.0f}ms deadline",
                )
