"""One fault hook: fail the Nth hit of a named site, by death or by disk.

The durability claims in this package (a killed sweep resumes to
byte-identical artifacts; a failed disk write costs durability, never the
run) are only provable if a test can break the process or the disk at a
*chosen, repeatable* instant. Instrumented code calls
``fault_point("journal.append")`` at such an instant; unarmed, that is a
dict lookup and an environment read. Faults are drawn by hit count, not
by RNG, so a failure found once is reproduced on every run.

An arm names a site, the hit it fires on, and an action:

* ``kill9`` — SIGKILL the process: a real, unhandled kill -9, with no
  atexit hooks, no flushes, no goodbye.
* ``raise`` — raise :class:`SimulatedCrash`, the in-process stand-in for
  death (a ``BaseException``, so ``except Exception`` cannot swallow it).
* ``enospc``, ``eio``, ``erofs``, ``emfile`` — raise a real ``OSError``
  with that errno, so the ``except OSError`` path production takes is the
  path a test takes (a root-owned test process ignores ``chmod``, so an
  injected ``EROFS`` is the honest read-only disk).
* ``torn`` — at a replace site, write half the temp file's bytes over the
  target, then raise ``EIO``: a rename that was not atomic.

A ``sticky`` arm fires on its hit and on every later one: a full disk
stays full. Arm in process with :func:`arm_fault_point`, or from outside
with one environment variable, ``site:N[:action]``, which fires on the
Nth hit of ``site`` with ``action`` (default ``kill9``)::

    FISQL_CRASH_POINT=journal.append:60 fisql-repro run table2 --journal J
    FISQL_CRASH_POINT=disk.atomic_write:1:enospc fisql-repro run table2 --suite-dir D

Sites instrumented today (grep for ``fault_point(`` to confirm):

========================  ================================================
``journal.append``        after a journal record is durable
``disk.journal_append``   before the journal line is written
``disk.atomic_write``     before the atomic writer's temp file (every
                          cache, session, semantic-cache and suite file)
``disk.replace``          before the atomic writer's ``os.replace``
``disk.semcache_log``     before the semantic cache's question-log append
========================  ================================================
"""

from __future__ import annotations

import errno
import os
import signal
import threading
from pathlib import Path
from typing import Optional

#: ``site:N[:action]`` — fire on the Nth hit of ``site``.
CRASH_POINT_ENV = "FISQL_CRASH_POINT"

#: Disk actions and the errno each raises; ``torn`` also tears the target.
_ERRNOS = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "erofs": errno.EROFS,
    "emfile": errno.EMFILE,
    "torn": errno.EIO,
}

ACTIONS = ("kill9", "raise", *_ERRNOS)


class SimulatedCrash(BaseException):
    """An in-process stand-in for process death at a fault point.

    Deliberately a ``BaseException``: recovery code that catches
    ``Exception`` (or :class:`~repro.errors.ReproError`) must not be able
    to "survive" a simulated crash, or the test would prove nothing.
    """

    def __init__(self, point: str, hits: int) -> None:
        super().__init__(f"simulated crash at {point!r} (hit {hits})")
        self.point = point
        self.hits = hits


_LOCK = threading.Lock()
# site -> (on_hit, action, sticky); an in-process arm shadows the env.
_ARMED: dict[str, tuple[int, str, bool]] = {}
_HITS: dict[str, int] = {}


def arm_fault_point(
    site: str, on_hit: int = 1, action: str = "raise", sticky: bool = False
) -> None:
    """Fire ``action`` on hit ``on_hit`` of ``site`` (and after, if sticky)."""
    if on_hit < 1:
        raise ValueError(f"on_hit must be >= 1: {on_hit}")
    if action not in ACTIONS:
        raise ValueError(
            f"unknown fault action {action!r} (known: {', '.join(ACTIONS)})"
        )
    with _LOCK:
        _ARMED[site] = (on_hit, action, sticky)
        _HITS[site] = 0


def disarm_fault_points() -> None:
    """Disarm every site and reset the hit counters (test teardown)."""
    with _LOCK:
        _ARMED.clear()
        _HITS.clear()


def fault_hits() -> dict[str, int]:
    """Hits counted so far at each armed site."""
    with _LOCK:
        return dict(_HITS)


def _env_arm(site: str) -> Optional[tuple[int, str, bool]]:
    spec = os.environ.get(CRASH_POINT_ENV)
    if not spec:
        return None
    parts = spec.split(":")
    if parts[0] != site or len(parts) > 3:
        return None
    try:
        on_hit = int(parts[1]) if len(parts) > 1 else 1
    except ValueError:
        return None
    action = parts[2] if len(parts) > 2 else "kill9"
    if on_hit < 1 or action not in ACTIONS:
        return None
    return on_hit, action, False


def _tear(tmp_path: Path, target: Path) -> None:
    """Leave a torn half-write in the target, as a broken rename would."""
    try:
        with open(tmp_path, "rb") as handle:
            payload = handle.read()
        with open(target, "wb") as handle:
            handle.write(payload[: max(1, len(payload) // 2)])
    except OSError:
        pass  # the tear is best-effort; the EIO after it is the contract


def fault_point(
    site: str,
    tmp_path: Optional[Path] = None,
    target: Optional[Path] = None,
) -> None:
    """Maybe fail here, per the armed configuration (no-op otherwise).

    ``tmp_path`` and ``target`` are read only by the ``torn`` action.
    """
    with _LOCK:
        arm = _ARMED.get(site) or _env_arm(site)
        if arm is None:
            return
        hits = _HITS.get(site, 0) + 1
        _HITS[site] = hits
        on_hit, action, sticky = arm
        if hits != on_hit and not (sticky and hits > on_hit):
            return
    # Act outside the lock: an OSError handler may touch the disk again.
    if action == "kill9":
        os.kill(os.getpid(), signal.SIGKILL)
        # SIGKILL is not deliverable on some platforms' threads; fall
        # through to the unconditional hard exit.
        os._exit(137)
    if action == "raise":
        raise SimulatedCrash(site, hits)
    if action == "torn" and tmp_path is not None and target is not None:
        _tear(tmp_path, target)
    code = _ERRNOS[action]
    raise OSError(code, f"{os.strerror(code)} (injected at {site})")
