"""Seeded disk-fault injection: deterministic I/O failure at named sites.

The disk analogue of :mod:`repro.durability.crashpoints`. Instrumented
code calls ``disk_fault("disk.journal_append")`` just before it touches
the disk; by default that is a no-op costing one dict lookup. Armed, the
hook raises a *real* :class:`OSError` (``ENOSPC``, ``EIO``, ``EROFS``) —
so the exact ``except OSError`` recovery paths production would exercise
are the ones the test exercises — or tears an ``os.replace`` by leaving
truncated bytes in the target before failing, simulating a filesystem
whose rename is not atomic.

Two arming styles, mirroring crash points:

* **Deterministic hit counts** — ``arm_disk_fault("disk.journal_append",
  on_hit=5, error="enospc", sticky=True)`` fails the 5th journal write
  and, because a full disk stays full, every write after it.
* **Seeded probability** — ``arm_disk_profile(DiskFaultProfile(
  rate=0.05, seed=7))`` fails ~5% of instrumented writes, with the same
  writes failing on every run with the same seed (the
  :class:`~repro.resilience.FaultProfile` construction, aimed at disk).

Subprocess scenarios arm via the environment::

    FISQL_DISK_FAULT=disk.journal_append:5:enospc:sticky fisql-repro ...

Sites instrumented today (grep for ``disk_fault(`` to confirm):

========================  =====================================================
``disk.atomic_write``     every atomic temp-file write (caches, suites,
                          session files)
``disk.replace``          the ``os.replace`` publish step (supports ``torn``)
``disk.journal_append``   the fsync'd write-ahead journal line
``disk.session_save``     session-store persistence on eviction
``disk.cache_save``       completion-cache persistence
``disk.semcache_save``    semantic-cache persistence
``disk.semcache_log``     the semcache question-log append
========================  =====================================================
"""

from __future__ import annotations

import errno as _errno
import os
import random
import threading
from dataclasses import dataclass
from typing import Optional

#: ``site:N[:error[:sticky]]`` — fail the Nth hit of ``site`` (and, with
#: ``sticky``, every later one).
DISK_FAULT_ENV = "FISQL_DISK_FAULT"

#: error name -> errno for injected OSErrors. ``torn`` is special-cased:
#: it tears the replace target before raising EIO.
_ERRNOS = {
    "enospc": _errno.ENOSPC,
    "eio": _errno.EIO,
    "erofs": _errno.EROFS,
    "emfile": _errno.EMFILE,
    "torn": _errno.EIO,
}


@dataclass(frozen=True)
class DiskFaultProfile:
    """A seeded probabilistic disk-fault plan.

    ``rate`` of instrumented disk touches fail with ``error``; the draw
    sequence is owned by one seeded RNG, so a given seed fails the same
    writes in the same order on every run.
    """

    rate: float = 0.0
    error: str = "eio"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1]: {self.rate}")
        if self.error not in _ERRNOS:
            raise ValueError(
                f"unknown disk fault error {self.error!r} "
                f"(known: {', '.join(sorted(_ERRNOS))})"
            )


class _FaultState:
    __slots__ = ("lock", "hits", "armed", "profile", "rng", "injected")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.hits: dict[str, int] = {}
        # site -> (on_hit, error, sticky); programmatic arms shadow the env.
        self.armed: dict[str, tuple[int, str, bool]] = {}
        self.profile: Optional[DiskFaultProfile] = None
        self.rng: Optional[random.Random] = None
        self.injected = 0


_STATE = _FaultState()


def arm_disk_fault(
    site: str, on_hit: int = 1, error: str = "enospc", sticky: bool = False
) -> None:
    """Arm one site: fail on hit ``on_hit`` (and after, when ``sticky``)."""
    if on_hit < 1:
        raise ValueError(f"on_hit must be >= 1: {on_hit}")
    if error not in _ERRNOS:
        raise ValueError(
            f"unknown disk fault error {error!r} "
            f"(known: {', '.join(sorted(_ERRNOS))})"
        )
    with _STATE.lock:
        _STATE.armed[site] = (on_hit, error, sticky)
        _STATE.hits[site] = 0


def arm_disk_profile(profile: DiskFaultProfile) -> None:
    """Arm the seeded probabilistic profile across every site."""
    with _STATE.lock:
        _STATE.profile = profile
        _STATE.rng = random.Random(profile.seed)


def disarm_disk_faults() -> None:
    """Disarm everything and reset hit counters (test teardown)."""
    with _STATE.lock:
        _STATE.armed.clear()
        _STATE.hits.clear()
        _STATE.profile = None
        _STATE.rng = None
        _STATE.injected = 0


def disk_fault_stats() -> dict:
    """Hit counters and injected-fault count (scenario assertions)."""
    with _STATE.lock:
        return {"hits": dict(_STATE.hits), "injected": _STATE.injected}


def _env_armed(site: str) -> Optional[tuple[int, str, bool]]:
    spec = os.environ.get(DISK_FAULT_ENV, "")
    if not spec:
        return None
    parts = spec.split(":")
    if not parts or parts[0] != site:
        return None
    try:
        on_hit = int(parts[1]) if len(parts) > 1 and parts[1] else 1
    except ValueError:
        return None
    error = parts[2] if len(parts) > 2 and parts[2] else "enospc"
    if error not in _ERRNOS:
        return None
    sticky = len(parts) > 3 and parts[3] == "sticky"
    return on_hit, error, sticky


def _raise(error: str, site: str) -> None:
    code = _ERRNOS[error]
    raise OSError(code, f"{os.strerror(code)} (injected at {site})")


def _tear_replace(tmp_path: object, target: object) -> None:
    """Leave a torn half-write in the target, as a broken rename would."""
    try:
        with open(tmp_path, "rb") as handle:  # type: ignore[arg-type]
            payload = handle.read()
        with open(target, "wb") as handle:  # type: ignore[arg-type]
            handle.write(payload[: max(1, len(payload) // 2)])
    except OSError:
        pass  # the tear is best-effort; the EIO below is the contract


def disk_fault(
    site: str, tmp_path: object = None, target: object = None
) -> None:
    """Maybe fail this disk touch, per the armed configuration.

    No-op when nothing is armed. ``tmp_path``/``target`` are only
    consulted by the ``torn`` error at replace sites.
    """
    with _STATE.lock:
        armed = _STATE.armed.get(site) or _env_armed(site)
        profile = _STATE.profile
        if armed is None and profile is None:
            return
        error: Optional[str] = None
        if armed is not None:
            hits = _STATE.hits.get(site, 0) + 1
            _STATE.hits[site] = hits
            on_hit, armed_error, sticky = armed
            if hits == on_hit or (sticky and hits > on_hit):
                error = armed_error
        if error is None and profile is not None and profile.rate > 0:
            assert _STATE.rng is not None
            if _STATE.rng.random() < profile.rate:
                error = profile.error
        if error is None:
            return
        _STATE.injected += 1
    # Raise outside the lock: OSError handlers may touch the disk again.
    if error == "torn" and tmp_path is not None and target is not None:
        _tear_replace(tmp_path, target)
    _raise(error, site)
