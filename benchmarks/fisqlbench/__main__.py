"""Command line: ``run`` a workload, or ``compare`` two result directories.

    python -m benchmarks.fisqlbench run --workload serve-cold --seed 7
    python -m benchmarks.fisqlbench run --workload all --trace 1
    python -m benchmarks.fisqlbench compare PARENT_DIR CHANGE_DIR

``run`` prints every metric with its unit, checks the program's outputs,
writes one result file per workload, and ends with one JSON line holding
the metrics ``BENCHMARK.json`` lists. It exits 1 when an output differs
from its reference or a request failed, and 2 when the checkout holds no
program to run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import RESULTS, SourceMissing, require_source


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.fisqlbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload (or all) and report")
    run.add_argument(
        "--workload",
        required=True,
        choices=("sweep-full", "serve-cold", "serve-hot", "all"),
    )
    run.add_argument(
        "--seed",
        type=int,
        default=20250325,
        help="picks the sessions: scripts, hot set and arrivals",
    )
    run.add_argument(
        "--seconds",
        type=float,
        default=15.0,
        help="measured time (BENCHMARK.json's run_seconds): the nominal "
        "serve phase; the least sweep time",
    )
    run.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: a separate run with layer wrappers, reporting per-layer metrics",
    )
    run.add_argument("--out", type=Path, default=RESULTS, help="result directory")
    run.add_argument(
        "--regen",
        action="store_true",
        help="rewrite the pinned references first",
    )
    compare = sub.add_parser("compare", help="judge a change against its parent")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    return parser


def _exit_on_sigterm(signum, frame) -> None:
    # Unwinds through the runners' ``finally`` blocks, which stop children.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.command == "compare":
        from .compare import compare

        return compare(args.parent, args.change)
    try:
        require_source()
    except SourceMissing as error:
        print(f"fisqlbench: {error}", file=sys.stderr)
        return 2
    from .run import WORKLOADS, print_report, regenerate, result_line, run_workload

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.regen:
        for name in dict.fromkeys(
            "sweep-full" if w == "sweep-full" else "serve" for w in workloads
        ):
            print(f"pinned {regenerate(name)}")
    outcomes = []
    for workload in workloads:
        outcome, path = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), "full", args.out
        )
        print_report(outcome, path)
        outcomes.append(outcome)
    line = result_line(outcomes, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
