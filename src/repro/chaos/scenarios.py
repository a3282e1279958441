"""Named chaos scenarios: hostile-environment drills with invariants.

Each scenario assembles a real slice of the stack — serve app, journal,
session store, the HTTP transport — turns a specific kind of hostility
loose on it (a full disk, a slow-loris flood, a kill-9 retry storm), and
then *checks invariants* rather than eyeballing logs:

* ``disk-full-mid-sweep`` — ENOSPC strikes the journal mid-sweep. The
  sweep must complete in degraded mode, the served bytes must be
  identical to a fault-free run, the surviving journal must reload
  cleanly with zero quarantined files, and a fault-free resume over the
  clean journal must be byte-identical with zero re-appends.
* ``slow-loris-drain`` — trickled heads, torn bodies, and terabyte
  Content-Lengths against the HTTP transport while real traffic flows.
  Attackers must be cut off or refused, real requests must keep
  answering, and ``/readyz`` must never lie: ready exactly while
  serving, not-ready the moment drain begins.
* ``retry-storm`` — every turn's response is eaten after the turn is
  applied (the client-visible shape of ``kill -9``), and the client
  retries with ``Idempotency-Key``. The transcript and journal must be
  byte-for-byte what a calm run produces: zero duplicated turns, even
  across an eviction/resume cycle.

Scenarios are deterministic (simulated LLM, sequential ids, seeded
faults) and self-contained: each builds its own app over the in-house
AEP database and cleans up its arming state in ``finally``. The CLI
entry is ``fisql-repro chaos --scenario NAME``; the report is a list of
named checks with pass/fail and detail, rendered by the CLI and asserted
wholesale by tests and the CI chaos smoke job.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro import obs
from repro.chaos.diskfaults import (
    arm_disk_fault,
    disarm_disk_faults,
    disk_fault_stats,
)
from repro.chaos.transport import oversized_body, slow_loris, torn_body
from repro.core import DemonstrationRetriever
from repro.datasets import build_aep_database, generate_aep_suite
from repro.durability.journal import RunJournal
from repro.serve import (
    CatalogEntry,
    InProcessTransport,
    ServeApp,
    ServeClient,
    SessionManager,
    SessionStore,
    start_in_thread,
)

#: (question, feedback) turns every scenario drives, per session.
_SCRIPT: Tuple[Tuple[str, str], ...] = (
    ("How many audiences were created in January?", "we are in 2024"),
    ("Which destinations were mapped to the Loyalty audience?", "only enabled ones"),
    ("How many profiles entered each audience last week?", "sort by count"),
)


def _catalog() -> dict:
    database = build_aep_database()
    _traffic, demos = generate_aep_suite(n_questions=8)
    return {"aep": CatalogEntry(database, DemonstrationRetriever(demos))}


def _sequential_ids(prefix: str = "s") -> Callable[[], str]:
    counter = itertools.count(1)
    return lambda: f"{prefix}{next(counter)}"


class _Check:
    """One named invariant and its verdict."""

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _report(name: str, checks: list) -> dict:
    return {
        "scenario": name,
        "passed": all(check.passed for check in checks),
        "checks": [check.as_dict() for check in checks],
    }


# -- disk-full-mid-sweep -----------------------------------------------------------


def _drive_sweep(
    catalog: dict, journal: RunJournal, store_dir: Path, prefix: str
) -> list:
    """One deterministic serve sweep; returns the raw (status, body) list."""
    manager = SessionManager(
        id_factory=_sequential_ids(prefix), store=SessionStore(store_dir)
    )
    app = ServeApp(catalog, manager=manager, journal=journal)
    client = ServeClient.in_process(app)
    outputs = []
    for question, feedback in _SCRIPT:
        sid = client.create_session(db="aep")["id"]
        outputs.append(
            client.request_raw(
                "POST", f"/sessions/{sid}/ask", {"question": question}
            )
        )
        outputs.append(
            client.request_raw(
                "POST",
                f"/sessions/{sid}/feedback",
                {"feedback": feedback},
            )
        )
    return outputs


def disk_full_mid_sweep(work_dir: Path) -> dict:
    """ENOSPC mid-sweep: degrade, serve identical bytes, resume cleanly."""
    checks: list = []
    catalog = _catalog()
    degraded_dir = work_dir / "degraded"
    clean_dir = work_dir / "clean"
    obs.enable()
    try:
        # The third journal append hits a full disk, and the disk stays
        # full (sticky): everything after that must run from memory.
        arm_disk_fault(
            "disk.journal_append", on_hit=3, error="enospc", sticky=True
        )
        journal = RunJournal(degraded_dir / "journal")
        outputs_degraded = _drive_sweep(
            catalog, journal, degraded_dir / "sessions", "s"
        )
        journal.seal()
        journal.close()
        turns_ok = sum(1 for status, _body in outputs_degraded if status == 200)
        checks.append(
            _Check(
                "sweep completed while the disk was full",
                turns_ok == len(outputs_degraded),
                f"{turns_ok}/{len(outputs_degraded)} turns answered 200",
            )
        )
        checks.append(
            _Check(
                "journal flipped to degraded read-only mode",
                journal.degraded and journal.degraded_writes > 0,
                f"{journal.appended} durable, "
                f"{journal.degraded_writes} degraded appends",
            )
        )
        stats = disk_fault_stats()
        checks.append(
            _Check(
                "the fault actually fired",
                stats["injected"] >= 1,
                f"{stats['injected']} injected OSErrors",
            )
        )
        snapshot = obs.snapshot()
        degraded_counted = any(
            counter.get("name") == "durability.degraded"
            for counter in snapshot.get("counters", [])
        )
        checks.append(
            _Check(
                "durability.degraded counted for the run report",
                degraded_counted,
                "counter present in the obs snapshot",
            )
        )
    finally:
        disarm_disk_faults()
        obs.disable()

    # The survivors reload without drama: only records fsync'd before
    # the fault, no quarantined files anywhere (nothing was torn).
    reloaded = RunJournal(degraded_dir / "journal")
    checks.append(
        _Check(
            "surviving journal reloads cleanly",
            len(reloaded) == 2,
            f"{len(reloaded)} records survived (2 fsync'd before ENOSPC)",
        )
    )
    reloaded.close()
    corrupt = list(work_dir.glob("**/*.corrupt*"))
    checks.append(
        _Check(
            "no quarantined artifacts beyond injected ones",
            not corrupt,
            f"{len(corrupt)} .corrupt files",
        )
    )

    # Fault-free run: the disk fault must never have changed served bytes.
    clean_journal = RunJournal(clean_dir / "journal")
    outputs_clean = _drive_sweep(
        catalog, clean_journal, clean_dir / "sessions", "s"
    )
    clean_journal.seal()
    clean_journal.close()
    checks.append(
        _Check(
            "degraded run served byte-identical responses",
            outputs_degraded == outputs_clean,
            "all (status, body) pairs equal across degraded and clean runs",
        )
    )

    # Resume over the clean journal: same bytes out, nothing re-appended.
    resume_journal = RunJournal(clean_dir / "journal")
    outputs_resume = _drive_sweep(
        catalog, resume_journal, clean_dir / "sessions-resume", "s"
    )
    checks.append(
        _Check(
            "fault-free --resume is byte-identical",
            outputs_resume == outputs_clean,
            "resumed sweep replayed the same (status, body) pairs",
        )
    )
    checks.append(
        _Check(
            "resume re-appended nothing",
            resume_journal.appended == 0 and len(resume_journal) == 6,
            f"{resume_journal.appended} new appends over "
            f"{len(resume_journal)} journaled turns",
        )
    )
    resume_journal.close()
    return _report("disk-full-mid-sweep", checks)


# -- slow-loris-drain --------------------------------------------------------------


def _attack(checks: list, port: int) -> None:
    """The attack battery against one listening server.

    The lorises trickle one header byte every 50 ms, well inside the
    300 ms read deadline: only a deadline on the whole head cuts them
    off, a timeout on each read never fires.
    """
    lorises: list = []

    def _loris() -> None:
        lorises.append(
            slow_loris("127.0.0.1", port, hold_s=4.0, drip_interval_s=0.05)
        )

    threads = [threading.Thread(target=_loris, daemon=True) for _ in range(4)]
    for thread in threads:
        thread.start()

    # Real traffic must flow *while* the lorises are holding sockets.
    client = ServeClient.connect(port=port)
    session = client.create_session(db="aep")
    answer = client.ask(session["id"], _SCRIPT[0][0])
    checks.append(
        _Check(
            "real traffic flows during the loris flood",
            bool(answer.get("answer", {}).get("sql")),
            "ask answered 200 with SQL while 4 lorises held sockets",
        )
    )
    ready_status, _body = client.request_raw("GET", "/readyz")
    checks.append(
        _Check(
            "/readyz stays truthful under attack",
            ready_status == 200,
            "server is serving, so it must report ready",
        )
    )

    torn = torn_body("127.0.0.1", port)
    checks.append(
        _Check(
            "torn body refused, never applied",
            torn["status"] == 400,
            f"torn request got {torn['status']}",
        )
    )
    oversized = oversized_body("127.0.0.1", port)
    checks.append(
        _Check(
            "terabyte Content-Length refused up front",
            oversized["status"] == 413 and oversized["elapsed_s"] < 2.0,
            f"413 in {oversized['elapsed_s']}s, before any body read",
        )
    )

    for thread in threads:
        thread.join(timeout=10.0)
    cut = sum(1 for result in lorises if result.get("cut_off"))
    quick = all(result["elapsed_s"] < 3.5 for result in lorises)
    checks.append(
        _Check(
            "every slow loris was cut off by the read deadline",
            cut == len(threads) and quick,
            f"{cut}/{len(threads)} cut off, slowest "
            f"{max((r['elapsed_s'] for r in lorises), default=0.0)}s",
        )
    )


def slow_loris_drain(work_dir: Path) -> dict:
    """Loris flood + torn/oversized bodies against the server, then drain."""
    checks: list = []
    app = ServeApp(
        _catalog(), manager=SessionManager(id_factory=_sequential_ids())
    )
    server, _thread = start_in_thread(
        app, port=0, read_timeout_ms=300.0, max_body_bytes=2048
    )
    try:
        _attack(checks, server.port)
        # Drain: /readyz must flip to not-ready the moment drain begins —
        # a balancer that believed an optimistic readyz would keep
        # routing to a server that refuses all mutations.
        app.begin_drain()
        client = ServeClient.connect(port=server.port)
        ready_status, _body = client.request_raw("GET", "/readyz")
        drained = app.await_idle(timeout=5.0)
        checks.append(
            _Check(
                "/readyz stops lying the moment drain begins",
                ready_status == 503 and drained,
                f"readyz={ready_status} after begin_drain, idle={drained}",
            )
        )
    finally:
        server.shutdown()
        server.server_close()
    return _report("slow-loris-drain", checks)


# -- retry-storm -------------------------------------------------------------------


class _ResponseEatingTransport:
    """In-process transport whose responses can be killed after apply.

    ``kill_next > 0`` makes the next mutating request apply server-side
    and then raise ``ConnectionResetError`` instead of returning — the
    client-visible shape of the server dying (or being ``kill -9``'d)
    after the turn committed but before the reply reached the wire.
    """

    def __init__(self, app: ServeApp) -> None:
        self._inner = InProcessTransport(app)
        self.kill_next = 0
        self.killed = 0

    def request_detailed(self, method, path, body=None, headers=None):
        result = self._inner.request_detailed(method, path, body, headers)
        if self.kill_next > 0 and method == "POST":
            self.kill_next -= 1
            self.killed += 1
            raise ConnectionResetError(
                "injected: server killed after applying the turn"
            )
        return result

    def request(self, method, path, body=None, headers=None):
        status, payload, _headers = self.request_detailed(
            method, path, body, headers
        )
        return status, payload


def retry_storm(work_dir: Path) -> dict:
    """Kill every first response; retries must not duplicate any turn."""
    checks: list = []
    catalog = _catalog()

    # Control: the same script against a calm server, no kills, no keys.
    control_journal = RunJournal(work_dir / "control-journal")
    control_app = ServeApp(
        catalog,
        manager=SessionManager(id_factory=_sequential_ids()),
        journal=control_journal,
    )
    control = ServeClient.in_process(control_app)
    control_sid = control.create_session(db="aep")["id"]
    for question, feedback in _SCRIPT:
        control.ask(control_sid, question)
        control.feedback(control_sid, feedback)
    control_transcript = control.transcript(control_sid)

    # Storm: every mutating response is eaten once, the client retries.
    journal = RunJournal(work_dir / "storm-journal")
    store = SessionStore(work_dir / "storm-sessions")
    manager = SessionManager(
        id_factory=_sequential_ids(), max_sessions=1, store=store
    )
    app = ServeApp(catalog, manager=manager, journal=journal)
    transport = _ResponseEatingTransport(app)
    sleeps: list = []
    client = ServeClient(
        transport,
        max_retries=3,
        retry_backoff_s=0.001,
        sleep=sleeps.append,
    )
    sid = client.create_session(db="aep")["id"]
    for question, feedback in _SCRIPT:
        transport.kill_next = 1
        client.ask(sid, question)
        transport.kill_next = 1
        client.feedback(sid, feedback)
    transcript = client.transcript(sid)

    kills = transport.killed
    checks.append(
        _Check(
            "every killed response was retried",
            kills == len(_SCRIPT) * 2 and client.retries >= kills,
            f"{kills} responses eaten, {client.retries} retries, "
            f"{len(sleeps)} backoff sleeps",
        )
    )
    checks.append(
        _Check(
            "zero duplicated turns despite the storm",
            transcript["turns"] == control_transcript["turns"],
            f"{len(transcript['turns'])} transcript turns, "
            "identical to the calm control run",
        )
    )
    checks.append(
        _Check(
            "journal holds each turn exactly once",
            len(journal) == len(control_journal),
            f"{len(journal)} journaled turns vs {len(control_journal)} "
            "in the calm control run",
        )
    )

    # Evict (max_sessions=1 forces it), resume, and replay an *old* key:
    # the dedup memory must survive the disk round-trip.
    transport.kill_next = 0
    first_bytes = client.request_detailed(
        "POST",
        f"/sessions/{sid}/ask",
        {"question": _SCRIPT[0][0]},
        headers={"Idempotency-Key": "storm-final"},
    )
    client.create_session(db="aep")  # second session evicts sid to disk
    status, _raw, _headers = client.request_detailed(
        "POST", "/sessions", {"db": "aep", "resume": sid}
    )
    replay_status, replay_raw, replay_headers = client.request_detailed(
        "POST",
        f"/sessions/{sid}/ask",
        {"question": _SCRIPT[0][0]},
        headers={"Idempotency-Key": "storm-final"},
    )
    checks.append(
        _Check(
            "replay memory survives evict + resume",
            status == 201
            and replay_status == 200
            and replay_raw == first_bytes[1]
            and replay_headers.get("Idempotency-Replayed") == "true",
            "retried key after resume returned the original bytes",
        )
    )
    journal.close()
    control_journal.close()
    return _report("retry-storm", checks)


#: The named scenarios ``fisql-repro chaos`` can run.
SCENARIOS: dict = {
    "disk-full-mid-sweep": disk_full_mid_sweep,
    "slow-loris-drain": slow_loris_drain,
    "retry-storm": retry_storm,
}


def run_scenario(name: str, work_dir: Optional[Path] = None) -> dict:
    """Run one named scenario; returns its report dict.

    With no ``work_dir`` a temporary directory is used and removed.
    """
    import tempfile

    runner = SCENARIOS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    if work_dir is not None:
        target = Path(work_dir) / name
        target.mkdir(parents=True, exist_ok=True)
        return runner(target)
    with tempfile.TemporaryDirectory(prefix=f"fisql-chaos-{name}-") as tmp:
        return runner(Path(tmp))
