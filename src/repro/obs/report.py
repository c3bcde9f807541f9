"""Plain-text "explain" reports rendered from recorded events.

The report answers, from the trace alone, the two questions the paper's
evaluation hinges on: *what did the compiler decide per task/loop and
why* (Table 1's affine-vs-total split), and *where did the scheduled
time and energy go* (Figure 4's Prefetch / Task / O.S.I. stacks).  All
inputs are plain :class:`~repro.obs.events.Event` lists, timelines, and
``ScheduleResult.summary()`` dicts — nothing is recomputed from the
simulator.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .events import Event
from .timeline import SEGMENT_KINDS, Timeline, energy_attribution

__all__ = [
    "render_compiler_decisions",
    "render_loop_detail",
    "render_pass_summary",
    "render_phase_breakdown",
    "render_timeline_breakdown",
    "render_energy_breakdown",
    "render_warnings",
    "explain_report",
]


def _instants(events: Iterable[Event], name: str) -> List[Event]:
    return [e for e in events if e.kind == "instant" and e.name == name]


def render_compiler_decisions(events: Iterable[Event]) -> str:
    """Per-task access-phase outcomes (the decisions behind Table 1)."""
    decisions = _instants(events, "access_phase.decision")
    lines = [
        "Compiler decisions (access-phase generation)",
        "  %-16s %-10s %12s  %s" % ("task", "method", "affine/total", "reason"),
    ]
    if not decisions:
        lines.append("  (no access-phase decisions recorded)")
    for event in decisions:
        args = event.args
        lines.append("  %-16s %-10s %12s  %s" % (
            args.get("task", "?"),
            args.get("method", "?"),
            "%s/%s" % (args.get("affine_loops", "?"),
                       args.get("total_loops", "?")),
            args.get("reason", "") or "-",
        ))
    return "\n".join(lines)


def render_loop_detail(events: Iterable[Event]) -> str:
    """Per-loop strategy and (when non-affine) the bail reasons."""
    loops = _instants(events, "access_phase.loop")
    lines = ["Loop detail (per target loop)"]
    if not loops:
        lines.append("  (no loop classifications recorded)")
    for event in loops:
        args = event.args
        reasons = args.get("reasons") or []
        suffix = "" if not reasons else "  [%s]" % "; ".join(reasons)
        lines.append("  %-16s %-12s %-10s%s" % (
            args.get("task", "?"),
            args.get("loop", "?"),
            args.get("strategy", "?"),
            suffix,
        ))
    return "\n".join(lines)


def render_pass_summary(events: Iterable[Event]) -> str:
    """Aggregate wall-clock per optimization pass, one row per pass in
    name order (wall times vary from run to run; the row order must
    not)."""
    totals: Dict[str, List[float]] = {}   # name -> [runs, ns, changes]
    for event in events:
        if event.kind != "span" or not event.cat.startswith("compiler.pass"):
            continue
        entry = totals.setdefault(event.name, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += event.dur_ns
        entry[2] += int(event.args.get("changes", 0))
    lines = [
        "Optimization passes (wall clock)",
        "  %-24s %6s %12s %10s" % ("pass", "runs", "total ms", "changes"),
    ]
    if not totals:
        lines.append("  (no pass spans recorded)")
    for name in sorted(totals):
        runs, ns, changes = totals[name]
        lines.append("  %-24s %6d %12.3f %10d" % (
            name, runs, ns / 1e6, changes,
        ))
    return "\n".join(lines)


def render_phase_breakdown(label: str, summary: Dict[str, Any]) -> str:
    """Figure-4-style stacked breakdown from ``ScheduleResult.summary()``."""
    buckets = summary.get("buckets", {})
    time_s = summary.get("time_s", 0.0) or 0.0
    energy_j = summary.get("energy_j", 0.0) or 0.0
    lines = [
        "Schedule breakdown — %s (scheme=%s, policy=%s)" % (
            label, summary.get("scheme", "?"), summary.get("policy", "?"),
        ),
        "  time  %.3f us   energy  %.3f uJ   EDP  %.3e Js" % (
            time_s * 1e6, energy_j * 1e6, summary.get("edp_js", 0.0),
        ),
        "  tasks %d   steals %d   dvfs transitions %d (%.3f uJ)" % (
            summary.get("tasks_run", 0), summary.get("steals", 0),
            summary.get("transitions", 0),
            (summary.get("transition_j", 0.0) or 0.0) * 1e6,
        ),
    ]
    rows = (
        ("Prefetch", "prefetch_s", "prefetch_j"),
        ("Task", "task_s", "task_j"),
        ("O.S.I.", "osi_s", "osi_j"),
    )
    # Buckets aggregate core-time across all cores, so percentages are
    # shares of total core-time (≈ wall time × cores), not of wall time.
    total_s = sum(buckets.get(key, 0.0) for _, key, _ in rows)
    total_j = sum(buckets.get(key, 0.0) for _, _, key in rows)
    lines.append("  %-10s %12s %8s %12s %8s" % (
        "component", "time us", "%", "energy uJ", "%",
    ))
    for title, time_key, energy_key in rows:
        seconds = buckets.get(time_key, 0.0)
        joules = buckets.get(energy_key, 0.0)
        lines.append("  %-10s %12.3f %7.1f%% %12.3f %7.1f%%" % (
            title,
            seconds * 1e6,
            100.0 * seconds / total_s if total_s else 0.0,
            joules * 1e6,
            100.0 * joules / total_j if total_j else 0.0,
        ))
    return "\n".join(lines)


def render_timeline_breakdown(timeline: Timeline) -> str:
    """Per-core activity totals straight from the recorded timeline."""
    per_core = timeline.per_core()
    lines = [
        "Per-core timeline (scheme=%s, policy=%s)" % (
            timeline.scheme or "?", timeline.policy or "?",
        ),
        "  %-6s" % "core" + "".join(
            " %12s" % ("%s us" % kind) for kind in SEGMENT_KINDS
        ),
    ]
    for core in sorted(per_core):
        by_kind = dict.fromkeys(SEGMENT_KINDS, 0.0)
        for segment in per_core[core]:
            by_kind[segment.kind] += segment.dur_ns
        lines.append("  %-6d" % core + "".join(
            " %12.3f" % (by_kind[kind] / 1e3) for kind in SEGMENT_KINDS
        ))
    return "\n".join(lines)


def _energy_row(label: str, node: Dict[str, Any]) -> str:
    energy_nj = node.get("energy_nj", 0.0)
    return "  %-24s %12.3f %12.3f %12.3f %12.3f %12.3f" % (
        label,
        node.get("time_ns", 0.0) / 1e3,
        energy_nj / 1e3,
        node.get("dynamic_nj", 0.0) / 1e3,
        node.get("static_nj", 0.0) / 1e3,
        node.get("transition_nj", 0.0) / 1e3,
    )


def render_energy_breakdown(attribution: Dict[str, Any]) -> str:
    """Where the joules went: the task → phase → component roll-up.

    ``attribution`` is :func:`~repro.obs.timeline.energy_attribution`
    output (also what run-ledger manifests persist): totals plus a
    per-task tree of phase kinds and a per-core table, each split into
    dynamic / static / transition energy.
    """
    lines = [
        "Energy attribution (scheme=%s, policy=%s)" % (
            attribution.get("scheme") or "?", attribution.get("policy") or "?",
        ),
        "  %-24s %12s %12s %12s %12s %12s" % (
            "", "time us", "energy uJ", "dynamic", "static", "transition",
        ),
        _energy_row("total", attribution),
    ]
    for task in sorted(attribution.get("tasks", {})):
        node = attribution["tasks"][task]
        lines.append(_energy_row(task, node))
        for kind in SEGMENT_KINDS:
            phase = node.get("phases", {}).get(kind)
            if phase is None:
                continue
            lines.append(_energy_row("  " + kind, phase))
    cores = attribution.get("cores", {})
    if cores:
        lines.append("  %-24s" % "per core:")
        for core in sorted(cores, key=lambda c: int(c)):
            lines.append(_energy_row("  core %s" % core, cores[core]))
    return "\n".join(lines)


def render_warnings(events: Iterable[Event]) -> str:
    warnings = [
        e for e in events
        if e.kind == "instant" and e.cat.startswith("warning")
    ]
    if not warnings:
        return ""
    lines = ["Warnings"]
    for event in warnings:
        detail = ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(event.args.items())
        )
        lines.append("  %-32s %s" % (event.name, detail))
    return "\n".join(lines)


def explain_report(app: str, events: Iterable[Event],
                   schedules: Optional[Dict[str, Dict[str, Any]]] = None,
                   timelines: Optional[Iterable[Timeline]] = None) -> str:
    """The full explain report for one traced application."""
    events = list(events)
    sections = [
        "Explain report: %s" % app,
        render_compiler_decisions(events),
        render_loop_detail(events),
        render_pass_summary(events),
    ]
    for label, summary in (schedules or {}).items():
        sections.append(render_phase_breakdown(label, summary))
    for timeline in timelines or ():
        sections.append(render_timeline_breakdown(timeline))
        if any(s.energy is not None for s in timeline.segments):
            sections.append(
                render_energy_breakdown(energy_attribution(timeline))
            )
    warnings = render_warnings(events)
    if warnings:
        sections.append(warnings)
    return "\n\n".join(sections) + "\n"
