"""Plain-text tables and curve series for benchmark output.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.experiments.runner import ExperimentResult


def format_percent(value: float, digits: int = 2) -> str:
    """0.0743 -> '7.43%'."""
    return f"{value * 100:.{digits}f}%"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """A fixed-width aligned table (markdown-ish, monospace-friendly)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_curves(result: ExperimentResult) -> str:
    """One scenario's curves as a k-by-meter table (a Fig. 13 panel)."""
    ks = [point.k for point in result.curves[0].points]
    headers = ["k"] + [curve.meter for curve in result.curves]
    rows = []
    for index, k in enumerate(ks):
        row = [k]
        for curve in result.curves:
            row.append(f"{curve.points[index].value:+.3f}")
        rows.append(row)
    title = (
        f"Fig. {result.scenario.figure}  [{result.scenario.name}] "
        f"{result.metric_name} correlation vs ideal meter "
        f"({result.test_unique} unique test passwords)"
    )
    return format_table(headers, rows, title=title)


def format_ranking(result: ExperimentResult) -> str:
    """'fuzzyPSM > PCFG > Markov > ...' by mean correlation."""
    pieces = []
    for curve in sorted(result.curves, key=lambda c: -c.mean):
        pieces.append(f"{curve.meter}({curve.mean:+.3f})")
    return " > ".join(pieces)
