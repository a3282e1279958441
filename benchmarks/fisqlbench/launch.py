"""Child-process entry points the benchmark starts.

    python -m benchmarks.fisqlbench.launch [--layers-out PATH] sweep \
        --scale full --seed N [--seconds S]
    python -m benchmarks.fisqlbench.launch serve --layers-out PATH SERVE_ARGS...

``sweep`` builds the experiment context, prints a ``ready`` line, then
sweeps (see :func:`keep_sweeping` for how many times): each sweep runs
Figure 2, Table 2, Figure 8 and Table 3 with their renderers and prints
its time, the sha256 of the rendered text and, with ``--seconds``, the
times of :func:`reference_ms` taken between its artifacts. ``serve`` is
``fisql-repro serve`` with the layer wrappers installed; after the
SIGTERM drain it writes the layer table. Untraced serve runs start
``python -m repro.cli serve`` directly instead.

With ``--layers-out`` the wrappers of :mod:`.layers` are installed before
the program does any work, and the layer table is written as JSON when
the child finishes.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import hashlib
import json
import random
import sys
import time
from typing import Callable, Optional, Sequence

from . import require_source
from .layers import LayerTimer


def _emit(event: str, **fields) -> None:
    print(json.dumps(dict(fields, event=event)), flush=True)


def _write_layers(path: str, timer: LayerTimer, started: float) -> None:
    document = {
        "wall_ms": (time.perf_counter() - started) * 1000.0,
        "layers": timer.snapshot(),
        "request_ms": timer.request_ms,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def render_sweep(
    context, between: Callable[[], object] = lambda: None
) -> tuple[str, dict[str, float]]:
    """Run and render every artifact: (rendered text, seconds per artifact).

    ``between`` is called, untimed, before each artifact.
    """
    from repro import (
        render_figure2,
        render_figure8,
        render_table2,
        render_table3,
        run_figure2,
        run_figure8,
        run_table2,
        run_table3,
    )

    renders, seconds = [], {}
    for name, run, render in (
        ("figure2", run_figure2, render_figure2),
        ("table2", run_table2, render_table2),
        ("figure8", run_figure8, render_figure8),
        ("table3", run_table3, render_table3),
    ):
        between()
        started = time.perf_counter()
        renders.append(render(run(context)))
        seconds[name] = time.perf_counter() - started
    return "\n".join(renders), seconds


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: A timed sweep child sweeps until it has swept ``--seconds``, then on
#: up to this many sweeps while it has swept less than
#: :data:`SWEEP_CAP_S`: four at the usual ~7.5 s a sweep, three or two
#: when the box runs slow, so that 70 runs still fit in an hour.
MIN_SWEEPS = 4
SWEEP_CAP_S = 25.0
#: Runs of :func:`reference_ms` before each artifact of a timed sweep.
REFERENCE_RUNS = 3

_WORD_RNG = random.Random(20250325)
#: The fixed input of :func:`reference_ms`.
_REFERENCE_WORDS = tuple(
    "".join(_WORD_RNG.choice("abcdefghij_") for _ in range(_WORD_RNG.randint(4, 14)))
    for _ in range(400)
)


def reference_ms() -> float:
    """Time one run of a fixed pure-Python routine, in milliseconds.

    It does the kinds of work a sweep does (string similarity, dicts,
    sorting, joining) and calls nothing in the program, so only the
    machine's speed moves it. Timed beside the sweeps, it tells a slow
    machine from a slow program. The garbage collector is off while it
    runs, so the size of the program's heap cannot move it either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        groups: dict[str, list] = {}
        for index, word in enumerate(_REFERENCE_WORDS):
            groups.setdefault(word[:3], []).append((word, index))
        for left in _REFERENCE_WORDS[:60]:
            for right in _REFERENCE_WORDS[60:100]:
                difflib.SequenceMatcher(None, left, right).ratio()
        rows = sorted(
            ((len(word), word, index) for group in groups.values() for word, index in group),
            reverse=True,
        )
        ",".join(f"{length}:{word}" for length, word, _ in rows)
        return (time.perf_counter() - started) * 1000.0
    finally:
        if collecting:
            gc.enable()


def keep_sweeping(times: Sequence[float], seconds: Optional[float]) -> bool:
    """Whether to start another sweep, given the times of those done.

    Without ``seconds`` (a traced run) the child sweeps once.
    """
    if not times or seconds is None:
        return not times
    swept = sum(times)
    return swept < seconds or (len(times) < MIN_SWEEPS and swept < SWEEP_CAP_S)


def sweep(scale: str, seed: int, seconds: Optional[float]) -> None:
    """Build the context, report ready, then time sweeps.

    Each sweep runs on a fresh ``ExperimentContext`` that shares the built
    suites (they are read-only), so no sweep reuses another's models,
    retrievers or reports. Each prints a ``done`` line with its time (the
    sum of its artifacts'), its render digest and, in a timed run,
    :data:`REFERENCE_RUNS` reference times taken before each artifact.
    ``finished`` ends.
    """
    from repro import build_context
    from repro.eval.harness import ExperimentContext

    built = build_context(scale=scale, seed=seed)
    _emit("ready")
    times: list[float] = []
    while keep_sweeping(times, seconds):
        context = ExperimentContext(
            scale=built.scale,
            seed=built.seed,
            spider=built.spider,
            aep_benchmark=built.aep_benchmark,
            aep_demos=built.aep_demos,
        )
        references: list[float] = []
        if seconds is None:
            text, artifacts = render_sweep(context)
        else:
            text, artifacts = render_sweep(
                context,
                between=lambda: references.extend(
                    reference_ms() for _ in range(REFERENCE_RUNS)
                ),
            )
        times.append(sum(artifacts.values()))
        _emit(
            "done",
            sweep_s=times[-1],
            artifacts_s=artifacts,
            reference_ms=references,
            digest=digest(text),
        )
    _emit("finished", sweeps=len(times))


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Everything after the command passes through to ``serve`` untouched.
    parser = argparse.ArgumentParser(prog="fisqlbench-launch", allow_abbrev=False)
    parser.add_argument("--layers-out", metavar="PATH")
    parser.add_argument("command", choices=("sweep", "serve"))
    args, rest = parser.parse_known_args(argv)
    if args.command == "sweep":
        sweep_parser = argparse.ArgumentParser(prog="fisqlbench-launch sweep")
        sweep_parser.add_argument("--scale", default="full")
        sweep_parser.add_argument("--seed", type=int, required=True)
        sweep_parser.add_argument("--seconds", type=float)
        sweep_args = sweep_parser.parse_args(rest)
    require_source()

    started = time.perf_counter()
    timer = None
    if args.layers_out is not None:
        timer = LayerTimer()
        timer.install()
    if args.command == "sweep":
        sweep(sweep_args.scale, sweep_args.seed, sweep_args.seconds)
        code = 0
    else:
        from repro.cli import main as repro_main

        code = repro_main(["serve", *rest])
    if timer is not None:
        _write_layers(args.layers_out, timer, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
