"""Plain-text rendering of the experiment results (the tables the paper
prints as figures; we print the same rows/series as text)."""

from __future__ import annotations

from typing import Iterable

from .experiments import (
    FIGURE3_CONFIGS,
    Figure3Row,
    Figure4Series,
    HeadlineNumbers,
    Table1Row,
)


def render_table1(rows: Iterable[Table1Row]) -> str:
    lines = [
        "Table 1: Application characteristics (paper -> measured)",
        "%-10s %16s %14s %18s %18s" % (
            "app", "affine/total", "# tasks", "TA%", "TA (usec)",
        ),
    ]
    for r in rows:
        lines.append(
            "%-10s %7s -> %-6s %7s -> %-7s %7.2f -> %-7.2f %7.2f -> %-7.2f" % (
                r.name,
                "%d/%d" % (r.paper_affine, r.paper_total),
                "%d/%d" % (r.affine_loops, r.total_loops),
                _compact(r.paper_tasks), _compact(r.tasks),
                r.paper_ta_percent, r.ta_percent,
                r.paper_ta_usec, r.ta_usec,
            )
        )
    return "\n".join(lines)


def _compact(value: int) -> str:
    if value >= 1_000_000:
        return "%.1fM" % (value / 1e6)
    if value >= 1_000:
        return "%.1fk" % (value / 1e3)
    return str(value)


def render_figure3(rows: Iterable[Figure3Row]) -> str:
    rows = list(rows)
    labels = [label for label, *_ in FIGURE3_CONFIGS]
    parts = []
    for metric, title in (
        ("time", "(a) Time (Normalized to Max Frequency)"),
        ("energy", "(b) Energy (Normalized to Max Frequency)"),
        ("edp", "(c) EDP (Normalized to Max Frequency)"),
    ):
        lines = ["Figure 3%s" % title, "%-10s" % "app" + "".join(
            " %26s" % label for label in labels
        )]
        for row in rows:
            values = getattr(row, metric)
            lines.append(
                "%-10s" % row.name
                + "".join(" %26.3f" % values[label] for label in labels)
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


def render_figure4(name: str, series: Iterable[Figure4Series]) -> str:
    parts = ["Figure 4: %s run-time and energy profiles" % name]
    for entry in series:
        lines = ["  %s (access @ fmin, execute fmin -> fmax)" % entry.label,
                 "    %8s %12s %12s %12s %12s | %12s %12s %12s %12s" % (
                     "f (GHz)", "prefetch us", "task us", "O.S.I. us",
                     "total us", "prefetch uJ", "task uJ", "O.S.I. uJ",
                     "total uJ")]
        for p in entry.points:
            lines.append(
                "    %8.1f %12.2f %12.2f %12.2f %12.2f | %12.2f %12.2f %12.2f %12.2f"
                % (
                    p.freq_ghz,
                    p.prefetch_ns / 1e3, p.task_ns / 1e3, p.osi_ns / 1e3,
                    p.total_ns / 1e3,
                    p.prefetch_nj / 1e3, p.task_nj / 1e3, p.osi_nj / 1e3,
                    p.total_nj / 1e3,
                )
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


def render_headline(numbers: HeadlineNumbers) -> str:
    return "\n".join([
        "Section 6.1 headline numbers (geomean vs CAE @ fmax):",
        "  500ns DVFS latency:",
        "    Compiler DAE EDP improvement: %5.1f%%  (paper: 25%%)"
        % (100 * numbers.auto_edp_gain_500ns),
        "    Manual   DAE EDP improvement: %5.1f%%  (paper: 23%%)"
        % (100 * numbers.manual_edp_gain_500ns),
        "    Compiler DAE time penalty:    %5.1f%%  (paper: ~4%%)"
        % (100 * numbers.auto_time_penalty_500ns),
        "  0ns (ideal) DVFS latency:",
        "    Compiler DAE EDP improvement: %5.1f%%  (paper: 29%%)"
        % (100 * numbers.auto_edp_gain_0ns),
        "    Manual   DAE EDP improvement: %5.1f%%  (paper: 25%%)"
        % (100 * numbers.manual_edp_gain_0ns),
        "    Compiler DAE time penalty:    %5.1f%%  (paper: slightly faster)"
        % (100 * numbers.auto_time_penalty_0ns),
    ])
