"""fisqlbench: end-to-end and per-layer benchmark of the FISQL reproduction.

Run from the repository root::

    python -m benchmarks.fisqlbench run --workload sweep-full --seed 20250325
    python -m benchmarks.fisqlbench run --workload serve-cold --trace 1
    python -m benchmarks.fisqlbench compare PARENT_DIR CHANGE_DIR

The program under test runs in child processes, started the way users
start it; the benchmark adds nothing to ``src/``. See ``README.md`` in
this directory for workloads, metrics, bounds and the baseline.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: the benchmark runs from here and builds nothing.
ROOT = Path(__file__).resolve().parents[2]
#: Where the program's source lives (``PYTHONPATH=src``).
SRC = ROOT / "src"
#: Pinned references and the default result directory.
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
RESULTS = HERE / "results"


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def require_source() -> None:
    """Put ``src`` on ``sys.path``, or raise when the program is absent.

    Only the checkout's own source counts: an installed ``repro`` package
    elsewhere would benchmark the wrong code.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
