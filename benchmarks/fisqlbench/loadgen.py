"""Open-loop HTTP load over a fixed set of keep-alive connections.

Sessions arrive on a schedule whether or not the server keeps up, as
independent chat users do. Each session runs create → ask → [feedback] →
delete; a user sends the next turn as soon as the previous answer
arrives. Every request is timed from when it was *due*, so time spent
waiting for a free connection counts against the server that held it.

Each sender thread owns one HTTP/1.1 keep-alive connection, the way a
client library or a proxy would talk to the server.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .workloads import Session

JSON_HEADERS = {"Content-Type": "application/json"}

#: A stalled server fails requests instead of hanging the benchmark.
SOCKET_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One request's outcome, with its times on the generator's clock."""

    phase: str
    session: Session
    route: str  # create | ask | feedback | delete
    request_id: str
    due: float
    sent: float
    done: float
    status: int  # 0 when the socket failed
    sql: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def wait_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    @property
    def wire_ms(self) -> float:
        """Send of the first byte to receipt of the last."""
        return (self.done - self.sent) * 1000.0


@dataclass
class Phase:
    """What one phase sent, and the sessions it dropped for lateness."""

    start: float
    records: list[Request]
    dropped_due: list[float]  # due times of sessions never started

    def late_at_ms(self, when: float) -> float:
        """How far behind schedule the generator was at ``when``."""
        pending = [r.due for r in self.records if r.due <= when < r.sent]
        pending += [due for due in self.dropped_due if due <= when]
        return max(((when - due) * 1000.0 for due in pending), default=0.0)


@dataclass(order=True)
class _Step:
    due: float
    seq: int
    session: Session = field(compare=False)
    route: str = field(compare=False)
    session_id: Optional[str] = field(default=None, compare=False)


class LoadGenerator:
    """Drives phases of sessions against one server."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self._connections = [
            http.client.HTTPConnection(host, port, timeout=SOCKET_TIMEOUT_S)
            for _ in range(connections)
        ]
        self._cond = threading.Condition()
        self._heap: list[_Step] = []
        self._seq = itertools.count()
        self._open = 0
        self._records: list[Request] = []
        self._dropped: list[float] = []
        self._drop_after: Optional[float] = None
        self._phase = ""

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def get(self, path: str) -> tuple[int, bytes, float]:
        """One GET on the first connection: status, body, elapsed ms."""
        connection = self._connections[0]
        started = time.perf_counter()
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        return response.status, body, (time.perf_counter() - started) * 1000.0

    def warm_up(self) -> None:
        """Open every connection before anything is timed."""
        for connection in self._connections:
            connection.request("GET", "/healthz")
            connection.getresponse().read()

    def run_phase(
        self,
        phase: str,
        sessions: list[Session],
        drop_after_s: Optional[float] = None,
        lead_s: float = 0.05,
    ) -> Phase:
        """Send every session on schedule and wait for all to finish.

        With ``drop_after_s``, a session not started within that long of
        its due time is dropped rather than queued: the generator is
        already further behind than any passing step allows, and draining
        the backlog would only lengthen the run.
        """
        start = time.perf_counter() + lead_s
        with self._cond:
            self._phase = phase
            self._records = []
            self._dropped = []
            self._drop_after = drop_after_s
            self._open = len(sessions)
            for session in sessions:
                heapq.heappush(
                    self._heap,
                    _Step(start + session.due, next(self._seq), session, "create"),
                )
        senders = [
            threading.Thread(
                target=self._send_loop,
                args=(connection,),
                name=f"sender-{i}",
                daemon=True,  # an interrupted run must still exit
            )
            for i, connection in enumerate(self._connections)
        ]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join()
        return Phase(start, self._records, self._dropped)

    # -- sender threads ----------------------------------------------------

    def _send_loop(self, connection: http.client.HTTPConnection) -> None:
        while True:
            with self._cond:
                while True:
                    if self._open == 0:
                        return
                    if self._heap:
                        delay = self._heap[0].due - time.perf_counter()
                        if delay <= 0:
                            step = heapq.heappop(self._heap)
                            if (
                                step.route == "create"
                                and self._drop_after is not None
                                and -delay > self._drop_after
                            ):
                                self._dropped.append(step.due)
                                self._open -= 1
                                continue
                            break
                        self._cond.wait(delay)
                    else:
                        self._cond.wait()
            record = self._send(connection, step)
            following = self._next_step(step, record)
            with self._cond:
                self._records.append(record)
                if following is None:
                    self._open -= 1
                else:
                    heapq.heappush(self._heap, following)
                self._cond.notify_all()

    def _send(self, connection: http.client.HTTPConnection, step: _Step) -> Request:
        script = step.session.script
        method, path, payload = "POST", "/sessions", None
        if step.route == "create":
            payload = {"db": script.db, "tenant": script.tenant}
        elif step.route == "ask":
            path = f"/sessions/{step.session_id}/ask"
            payload = {"question": script.question}
        elif step.route == "feedback":
            path = f"/sessions/{step.session_id}/feedback"
            payload = {"feedback": script.feedback}
        else:
            method, path = "DELETE", f"/sessions/{step.session_id}"
        request_id = f"{self._phase}.{step.session.index}.{step.route}"
        headers = dict(JSON_HEADERS, **{"X-Request-Id": request_id})
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        sent = time.perf_counter()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            done = time.perf_counter()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            connection.close()  # the next request reconnects
            return Request(
                self._phase, step.session, step.route, request_id,
                step.due, sent, time.perf_counter(), 0,
                error=f"{type(exc).__name__}: {exc}",
            )
        record = Request(
            self._phase, step.session, step.route, request_id,
            step.due, sent, done, status,
        )
        if record.ok and step.route != "delete":
            try:
                reply = json.loads(raw)
                if step.route == "create":
                    step.session_id = reply["session"]["id"]
                else:
                    record.sql = reply["answer"]["sql"]
            except (ValueError, KeyError, TypeError) as exc:
                record.error = f"malformed reply: {exc}"
        return record

    def _next_step(self, step: _Step, record: Request) -> Optional[_Step]:
        if step.route == "create":
            route = "ask" if record.ok else None
        elif (
            step.route == "ask"
            and record.ok
            and step.session.script.feedback is not None
        ):
            route = "feedback"
        elif step.route in ("ask", "feedback"):
            route = "delete"
        else:
            route = None
        if route is None:
            return None
        return _Step(
            record.done, next(self._seq), step.session, route, step.session_id
        )
