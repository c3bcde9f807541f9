"""The ``trace`` experiment: one fully-observed workload run.

``python -m repro.evaluation trace <app>`` compiles, profiles and
schedules one workload with the observability collector enabled, then
writes three artifacts:

* ``<app>.trace.json``  — Chrome ``trace_event`` JSON; open it at
  https://ui.perfetto.dev (compiler passes on the wall clock, scheduler
  cores on the simulated clock);
* ``<app>.events.jsonl`` — the flat structured-event log;
* ``<app>.explain.txt``  — the plain-text explain report: per-task and
  per-loop access-phase decisions (Table 1's provenance) and per-run
  Figure-4-style phase breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..sim.config import MachineConfig
from ..transform.access_phase import AccessPhaseOptions
from ..workloads import workload_by_name
from .experiments import WorkloadRun, run_workload, schedule_configs


@dataclass
class TraceArtifacts:
    """Everything one traced run produced."""

    app: str
    run: WorkloadRun
    collector: obs.Collector
    schedules: dict = field(default_factory=dict)   # label -> ScheduleResult
    trace_path: str = ""
    events_path: str = ""
    report_path: str = ""


def trace_workload(name: str, scale: int = 1,
                   config: Optional[MachineConfig] = None,
                   collector: Optional[obs.Collector] = None,
                   options: Optional[AccessPhaseOptions] = None,
                   ) -> TraceArtifacts:
    """Run one workload end to end with the collector enabled, and
    schedule it under the run ledger's configurations
    (:data:`~repro.evaluation.experiments.MANIFEST_CONFIGS`), so traces
    and manifests describe the same runs.

    Tracing never consults the profile cache: the explain report is
    built from the compile/profile events of a fresh run, which a cache
    hit would skip.
    """
    config = config or MachineConfig()
    if collector is None:   # NB: an empty Collector is falsy (len 0)
        collector = obs.Collector(enabled=True)
    artifacts = TraceArtifacts(app=name, run=None, collector=collector)

    with obs.collecting(collector):
        artifacts.run = run_workload(
            workload_by_name(name), scale, config, options=options,
        )
        for label, result, _ in schedule_configs(
            artifacts.run, config, record_timeline=True,
        ):
            artifacts.schedules[label] = result
    return artifacts


def export_trace(artifacts: TraceArtifacts,
                 out_prefix: Optional[str] = None) -> TraceArtifacts:
    """Write the three artifact files next to ``out_prefix``."""
    prefix = out_prefix or artifacts.app
    events = artifacts.collector.events()
    timelines = [
        result.timeline for result in artifacts.schedules.values()
        if result.timeline is not None
    ]
    artifacts.trace_path = obs.write_chrome_trace(
        prefix + ".trace.json", events, timelines
    )
    artifacts.events_path = obs.write_jsonl(
        prefix + ".events.jsonl", events
    )
    report = obs.explain_report(
        artifacts.app, events,
        schedules={
            label: result.summary()
            for label, result in artifacts.schedules.items()
        },
        timelines=timelines,
    )
    artifacts.report_path = prefix + ".explain.txt"
    with open(artifacts.report_path, "w") as handle:
        handle.write(report)
    return artifacts
