"""``compare PARENT_DIR CHANGE_DIR``: judge a change against its parent.

Each directory holds the untraced result files of alternating runs of one
commit (``run --out DIR``). For every workload and every metric, the runs
pair up in the order they were made, and :func:`.stats.verdict` applies
the rule in README.md: every metric must stay within its bound; a gain
needs at least ten pairs, nine tenths of them won, a median difference
beyond the parent's interquartile range, and no more failed operations
than the parent; a metric whose spread exceeds its bound is unresolved
unless every change run beats, or loses to, every parent run.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import ROOT
from .stats import FAILING, quartiles, verdict

#: Bounds and directions of the metrics BENCHMARK.json does not list
#: (those it lists are read from it). A zero bound: any worsening counts.
#: The serve latencies keep the 10% bound the shared ``latency_ms``
#: cannot have; sweep time is ``latency_ms`` on sweep-full.
EXTRA_METRICS = {
    "ask_p50_ms": ("lower", 0.10),
    "feedback_p50_ms": ("lower", 0.10),
    "turn_p90_ms": ("lower", 0.10),
    "max_rate_sps": ("higher", 0.0),
    "error_rate": ("lower", 0.0),
    "answer_match": ("higher", 0.0),
}


def _runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced result documents per workload, oldest first."""
    by_workload: dict[str, list[tuple]] = {}
    for path in directory.glob("*.json"):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("trace") is False:
            by_workload.setdefault(document["workload"], []).append(
                (path.stat().st_mtime, path.name, document)
            )
    return {
        workload: [document for *_, document in sorted(items, key=lambda i: i[:2])]
        for workload, items in by_workload.items()
    }


def _rules() -> dict[str, tuple[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = dict(EXTRA_METRICS)
    for metric in spec["end_to_end"]:
        rules[metric["name"]] = (metric["better"], metric["bound"])
    return rules


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Print one row per (workload, metric); 1 if any is a regression or worse."""
    parent, change = _runs(parent_dir), _runs(change_dir)
    rules = _rules()
    regressed = False
    print(
        f"{'workload':<11} {'metric':<16} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'won':>6}  verdict"
    )
    for workload in sorted(set(parent) & set(change)):
        more_failures = sum(d["failed"] for d in change[workload]) > sum(
            d["failed"] for d in parent[workload]
        )
        for name, (better, bound) in rules.items():
            before = [d["metrics"][name]["value"] for d in parent[workload]
                      if name in d["metrics"]]
            after = [d["metrics"][name]["value"] for d in change[workload]
                     if name in d["metrics"]]
            if not before or not after:
                continue
            result, wins, pairs = verdict(before, after, better, bound, more_failures)
            regressed |= result in FAILING
            print(
                f"{workload:<11} {name:<16} {_cell(before):>30} "
                f"{_cell(after):>30} {wins:>3}/{pairs:<2}  {result}"
            )
    return 1 if regressed else 0


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"
