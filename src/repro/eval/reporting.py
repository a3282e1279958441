"""Render experiment results in the paper's table/series formats."""

from __future__ import annotations

from repro.eval.experiments import (
    Figure2Result,
    Figure8Result,
    Table2Result,
    Table3Result,
)
from repro.obs.reporting import _table


def ascii_bar(value: float, scale: float = 100.0, width: int = 40) -> str:
    """A unit-width ASCII bar for terminal 'charts'."""
    filled = int(round(width * max(0.0, min(value, scale)) / scale))
    return "█" * filled + "·" * (width - filled)


def render_figure2_chart(result: Figure2Result) -> str:
    """Figure 2 as an ASCII bar chart (closer to the paper's visual)."""
    rows = [
        ("SPIDER", result.spider_accuracy),
        ("Experience Platform", result.aep_accuracy),
    ]
    width = max(len(label) for label, _v in rows)
    lines = ["Figure 2 — zero-shot NL2SQL execution accuracy (%)"]
    for label, value in rows:
        lines.append(f"{label.ljust(width)} |{ascii_bar(value)}| {value:.1f}")
    return "\n".join(lines)


def render_figure8_chart(result: Figure8Result) -> str:
    """Figure 8 as ASCII bars per round and method."""
    lines = ["Figure 8 — correction % by feedback round (SPIDER errors)"]
    for round_index in range(len(result.fisql_by_round)):
        fisql = result.fisql_by_round[round_index]
        ablated = result.no_routing_by_round[round_index]
        lines.append(
            f"round {round_index + 1}  FISQL       "
            f"|{ascii_bar(fisql)}| {fisql:.1f}"
        )
        lines.append(
            f"round {round_index + 1}  (-Routing)  "
            f"|{ascii_bar(ablated)}| {ablated:.1f}"
        )
    return "\n".join(lines)


def render_figure2(result: Figure2Result) -> str:
    """Figure 2 as a two-row comparison (paper vs measured)."""
    rows = [
        [
            "SPIDER",
            f"{result.spider_accuracy:.1f}",
            f"{result.paper_spider:.1f}",
            str(result.spider_total),
        ],
        [
            "Experience Platform",
            f"{result.aep_accuracy:.1f}",
            f"{result.paper_aep:.1f}",
            str(result.aep_total),
        ],
    ]
    return "Figure 2 — zero-shot NL2SQL execution accuracy (%)\n" + _table(
        ["Dataset", "Measured", "Paper", "N"], rows
    )


def render_table2(result: Table2Result) -> str:
    """Table 2 in the paper's layout."""
    rows = []
    for method in ("Query Rewrite", "FISQL (- Routing)", "FISQL"):
        aep = result.cell(method, "aep")
        spider = result.cell(method, "spider")
        rows.append(
            [
                method,
                f"{aep.corrected_percent:.2f}" if aep else "-",
                f"{result.paper.get((method, 'aep'), float('nan')):.2f}"
                if (method, "aep") in result.paper
                else "-",
                f"{spider.corrected_percent:.2f}" if spider else "-",
                f"{result.paper.get((method, 'spider'), float('nan')):.2f}"
                if (method, "spider") in result.paper
                else "-",
            ]
        )
    return (
        "Table 2 — % instances corrected with one round of NL feedback\n"
        + _table(
            [
                "Method",
                "EP (measured)",
                "EP (paper)",
                "SPIDER (measured)",
                "SPIDER (paper)",
            ],
            rows,
        )
    )


def render_figure8(result: Figure8Result) -> str:
    """Figure 8 as two series over feedback rounds."""
    rows = []
    for round_index in range(len(result.fisql_by_round)):
        rows.append(
            [
                str(round_index + 1),
                f"{result.fisql_by_round[round_index]:.2f}",
                f"{result.no_routing_by_round[round_index]:.2f}",
            ]
        )
    note = f"(paper: {result.paper_note})"
    return (
        "Figure 8 — correction % by feedback round (SPIDER errors)\n"
        + _table(["Round", "FISQL", "FISQL (- Routing)"], rows)
        + "\n"
        + note
    )


def render_table3(result: Table3Result) -> str:
    """Table 3 in the paper's layout."""
    rows = [
        [
            "FISQL",
            f"{result.fisql_aep:.2f}",
            f"{result.paper[('FISQL', 'aep')]:.2f}",
            f"{result.fisql_spider:.2f}",
            f"{result.paper[('FISQL', 'spider')]:.2f}",
        ],
        [
            "FISQL (+ Highlighting)",
            f"{result.highlighting_aep:.2f}",
            f"{result.paper[('FISQL (+ Highlighting)', 'aep')]:.2f}",
            f"{result.highlighting_spider:.2f}",
            f"{result.paper[('FISQL (+ Highlighting)', 'spider')]:.2f}",
        ],
    ]
    return (
        "Table 3 — % instances corrected with highlights + NL feedback\n"
        + _table(
            [
                "Method",
                "EP (measured)",
                "EP (paper)",
                "SPIDER (measured)",
                "SPIDER (paper)",
            ],
            rows,
        )
    )
