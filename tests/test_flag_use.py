"""Every ``fisql-repro`` option is passed by a test, a CI step or a benchmark.

A flag that nothing passes is surface no one checks: its wiring can break,
or its value can go unvalidated, without a test noticing. This check makes
each new flag arrive with a caller. It searches the text of the test suite
(this file aside), the CI workflows and the benchmarks for each option
string of each subcommand.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent

SEARCHED = ("tests", ".github/workflows", "benchmarks")
SUFFIXES = {".py", ".yml", ".yaml"}

#: Options that need no caller.
EXEMPT = {
    "-h",
    "--help",
    # Kept or deleted together with --workers: ROADMAP's item "Decide the
    # `--workers` thread tier on a workload that can use it".
    "--hedge-after-ms",
}


def _option_strings() -> set:
    parser = _build_parser()
    options: set = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for sub_action in sub._actions:
                    options.update(sub_action.option_strings)
    return options


def _searched_text() -> str:
    this = Path(__file__).resolve()
    texts = []
    for root in SEARCHED:
        for path in sorted((REPO_ROOT / root).rglob("*")):
            if path.suffix in SUFFIXES and path.resolve() != this:
                texts.append(path.read_text(encoding="utf-8"))
    return "\n".join(texts)


def test_every_option_has_a_caller():
    text = _searched_text()
    unused = sorted(
        option
        for option in _option_strings() - EXEMPT
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
    )
    assert unused == [], (
        f"options no test, CI step or benchmark passes: {unused}; "
        "test each one through the CLI, or delete it"
    )
