"""Deterministic hostile-environment chaos: disk and transport faults.

The model tier is chaos-testable through :mod:`repro.resilience` (seeded
LLM faults, retry/breaker stacks, degraded rounds), with the guarantee
that a chaos run is deterministic and a no-flag run is byte-identical.
This package extends that guarantee down to the environment:

* Disk faults come from the one fault hook,
  :mod:`repro.durability.faultpoints`: ``ENOSPC``/``EIO``/``EROFS`` or a
  torn ``os.replace`` at the atomic writer, the run journal and the
  semantic cache's question log. The atomic writer degrades every
  whole-file persister by one rule, and the journal flips into a
  *degraded read-only* mode; both count ``durability.degraded`` for the
  run report instead of crashing the sweep.
* :mod:`repro.chaos.transport` — hostile HTTP clients (slow-loris
  header trickles, torn request bodies, oversized posts) used by the
  transport-hardening tests and the scenario runner.
* :mod:`repro.chaos.scenarios` — named end-to-end scenario schedules
  behind ``fisql-repro chaos --scenario NAME``, each asserting its
  invariants (degraded-mode completion + byte-identical ``--resume``,
  drain under slow-loris flood, exactly-once retried turns).

Layering: this package sits above :mod:`repro.durability` and imports
from it; nothing in :mod:`repro.durability` imports this package.
"""
