"""The ``tune`` experiment: report and artifacts for one tuning run.

``python -m repro.evaluation tune <app>`` drives
:func:`repro.tuning.tune_workload` and writes two artifacts:

* ``<prefix>-tuning.md``   — the markdown report rendered by
  :func:`render_tuning_report`;
* ``<prefix>-tuning.json`` — :meth:`TuningResult.as_dict` as JSON.

Both artifacts (and the report printed to stdout) are deterministic
functions of the tuning problem — no wall-clock, no cache state — so
cold and warm reruns byte-match.  Execution statistics go to stderr
only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..tuning import TuningCandidate, TuningResult


@dataclass
class TuningArtifacts:
    """Everything one ``tune`` invocation wrote."""

    app: str
    result: TuningResult
    report_path: str = ""
    json_path: str = ""


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "infeasible"
    return "%.4g" % value


def _candidate_row(candidate: TuningCandidate) -> str:
    return "| %s | %.4g | %.4g | %.4g | %s |" % (
        candidate.label, candidate.time_s * 1e6, candidate.energy_j * 1e6,
        candidate.edp_js, _fmt_value(candidate.value),
    )


def render_tuning_report(result: TuningResult) -> str:
    """One tuning run as markdown (deterministic; see module docstring)."""
    lines = [
        "# Tuning report: %s" % result.workload,
        "",
        "- objective: `%s`" % result.objective,
        "- scheme: `%s`" % result.scheme,
        "- strategy: `%s`" % result.strategy,
        "- scale: %d" % result.scale,
        "- tuned policy installed: %s"
        % ("yes" if result.installed else "no"),
    ]
    if result.machine is not None:
        lines.append("- machine: `%s`" % result.machine)
        if result.placement is not None:
            lines.append(
                "- tuned placement: access on `%s`, execute on `%s`"
                % (result.placement["access"], result.placement["execute"])
            )
    lines += [
        "",
        "## Winner",
        "",
        "| candidate | time (us) | energy (uJ) | EDP (Js) | objective |",
        "|---|---|---|---|---|",
        _candidate_row(result.best),
        _candidate_row(result.phase_local),
    ]
    improvement = result.improvement_over_phase_local()
    if improvement is not None:
        lines += [
            "",
            "Schedule-level tuning %s the paper's phase-local baseline "
            "by %.2f%% on `%s`." % (
                "beats" if improvement > 0 else "matches",
                100.0 * improvement, result.objective,
            ),
        ]
    lines += [
        "",
        "## Strategies",
        "",
        "| strategy | evaluations | best | objective | notes |",
        "|---|---|---|---|---|",
    ]
    for summary in result.strategies:
        lines.append("| %s | %d | %s | %s | %s |" % (
            summary.name, summary.evaluations, summary.best_label,
            _fmt_value(summary.best_value), summary.detail,
        ))
    lines += [
        "",
        "## Reference policies",
        "",
        "| policy | time (us) | energy (uJ) | EDP (Js) | objective |",
        "|---|---|---|---|---|",
    ]
    for label in sorted(result.references):
        lines.append(_candidate_row(result.references[label]))
    lines += [
        "",
        "## Pareto front (time, energy)",
        "",
        "| candidate | time (us) | energy (uJ) | EDP (Js) |",
        "|---|---|---|---|",
    ]
    for point in result.front:
        lines.append("| %s | %.4g | %.4g | %.4g |" % (
            point.label, point.time_s * 1e6, point.energy_j * 1e6,
            point.edp_js,
        ))
    lines += ["", _render_matrix(result), ""]
    return "\n".join(lines)


def _render_matrix(result: TuningResult) -> str:
    """The evaluated (access, execute) objective values as a grid;
    pairs no strategy visited print as ``-``.

    On a heterogeneous machine the same point pair exists once per
    placement, so the grid shows only the winning placement's sweep
    (every placement's best is in the Strategies table above).
    """
    candidates = result.candidates
    title = "## Evaluated candidates (objective value)"
    if result.placement is not None:
        prefix = "%s->%s " % (result.placement["access"],
                              result.placement["execute"])
        candidates = [c for c in candidates if c.label.startswith(prefix)]
        title += " — placement %s" % prefix.strip()
    by_key = {c.pair.key: c for c in candidates}
    access_freqs = sorted({key[0] for key in by_key})
    execute_freqs = sorted({key[1] for key in by_key})
    lines = [
        title,
        "",
        "| access \\ execute | "
        + " | ".join("%.1f" % f for f in execute_freqs) + " |",
        "|---" * (len(execute_freqs) + 1) + "|",
    ]
    best_key = result.best.pair.key if result.best.pair else None
    for access in access_freqs:
        cells = []
        for execute in execute_freqs:
            candidate = by_key.get((access, execute))
            if candidate is None:
                cells.append("-")
            else:
                cell = _fmt_value(candidate.value)
                if (access, execute) == best_key:
                    cell = "**%s**" % cell
                cells.append(cell)
        lines.append("| %.1f | %s |" % (access, " | ".join(cells)))
    return "\n".join(lines)


def export_tuning(result: TuningResult,
                  out_prefix: str = None) -> TuningArtifacts:
    """Write the markdown and JSON artifacts for ``result``."""
    prefix = out_prefix or result.workload
    artifacts = TuningArtifacts(
        app=result.workload, result=result,
        report_path="%s-tuning.md" % prefix,
        json_path="%s-tuning.json" % prefix,
    )
    with open(artifacts.report_path, "w") as handle:
        handle.write(render_tuning_report(result))
        handle.write("\n")
    with open(artifacts.json_path, "w") as handle:
        json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return artifacts
