"""Cross-machine comparison: one recording, every machine.

``python -m repro.evaluation machines <app...> --machines a,b,c``
records each workload's three-scheme profile matrix exactly once, then
re-simulates it under every requested
:class:`~repro.machines.model.MachineModel` by trace replay
(:func:`~repro.machines.replay.machine_stream`, the one replay path
for single-type and heterogeneous machines alike) and schedules the
run-ledger configurations on each.  Every recorded phase replays, so
not a single instruction is re-interpreted per machine (the report
carries the :class:`~repro.interp.trace.TraceStore` counters that
prove it).  :class:`MachineSweep` is that record-once,
re-simulate-per-machine loop; the ``ablate`` verb runs its config
variants through it too.

Every scheduled result records a timeline and passes both timeline
validation and the exact energy roll-up check, so migration charges on
heterogeneous machines are audited on every run of the verb.

``machines_manifest`` projects one machine's column into a run-ledger
manifest document, which is how CI's ``machines-smoke`` job holds the
``sandybridge`` column to the committed baseline with the ordinary
``runs compare`` 5% gate.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..engine.products import ALL_SCHEMES, WorkloadRun, profile_workload
from ..interp.trace import TraceStore
from ..machines import (
    MachineModel,
    machine_profiles,
    prune_private_passes,
)
from ..obs.ledger import RunManifest, _utc_now
from ..power.frequency import FrequencyPolicy
from ..runtime.scheduler import DAEScheduler
from ..sim.config import MachineConfig
from ..workloads import Workload
from .experiments import MANIFEST_CONFIGS, relative_metrics


class MachineSweep:
    """One workload recorded once, re-simulated per machine.

    The constructor profiles the three-scheme matrix under ``config``
    (default :class:`MachineConfig`) with every phase recorded;
    :meth:`runs` then yields each machine's profiles.
    """

    def __init__(self, workload: Workload, scale: int = 1,
                 config: Optional[MachineConfig] = None):
        self.workload = workload
        self.store = TraceStore()
        self.run = profile_workload(
            workload, scale, config, schemes=ALL_SCHEMES,
            trace_store=self.store,
        )

    def runs(self, machines: Sequence[MachineModel]) -> Iterator[WorkloadRun]:
        """One :class:`WorkloadRun` per machine, in order, by trace
        replay.  Replay keeps only the private passes a later machine
        reuses.
        """
        recorded = self.store.recorded_phases
        for index, machine in enumerate(machines):
            profiles = machine_profiles(self.store, machine)
            prune_private_passes(self.store, machines[index + 1:])
            # Replay must never touch the recorder: a drifted counter
            # means a machine was silently re-interpreted.
            assert self.store.recorded_phases == recorded, (
                "machine %r re-interpreted %r"
                % (machine.name, self.workload.name)
            )
            yield WorkloadRun(
                workload=self.workload, compiled=self.run.compiled,
                profiles=profiles, task_count=self.run.task_count,
            )


def compare_machines(workloads: Sequence[Workload],
                     machine_names: Optional[Sequence[str]] = None,
                     *, scale: int = 1) -> dict:
    """Profile ``workloads`` once each; schedule on every machine.

    Returns a JSON-able report (render with
    :func:`render_machines_report`).
    """
    names = [n.lower() for n in (machine_names
                                 or MachineModel.registered_names())]
    machines = [MachineModel.from_name(name) for name in names]
    report = {
        "kind": "machines",
        "scale": scale,
        "machines": names,
        "workloads": {},
    }
    for workload in workloads:
        sweep = MachineSweep(workload, scale)
        columns = {
            name: {"source": "replay",
                   "schedules": _schedule_machine(run, machine)}
            for name, machine, run in zip(names, machines,
                                          sweep.runs(machines))
        }
        report["workloads"][workload.name] = {
            "task_count": sweep.run.task_count,
            "replayed": True,
            "recorded_phases": sweep.store.recorded_phases,
            "recorded_events": sweep.store.recorded_events,
            "machines": columns,
        }
    return report


def _schedule_machine(run: WorkloadRun, machine: MachineModel) -> dict:
    """The run-ledger schedule configurations on one machine, each with
    a validated timeline and exact energy roll-up."""
    schedules = {}
    baseline = None
    for label, stream, run_scheme, policy_name in MANIFEST_CONFIGS:
        policy = FrequencyPolicy.from_name(policy_name, machine.config)
        result = DAEScheduler(machine=machine).run(
            run.profiles[stream.value].tasks, run_scheme, policy,
            record_timeline=True,
        )
        result.timeline.validate(result.time_ns)
        result.timeline.validate_energy(result.energy_nj)
        if baseline is None:
            baseline = result
        schedules[label] = {
            "summary": result.summary(),
            "relative": relative_metrics(result, baseline),
        }
    return schedules


def machines_manifest(report: dict, machine_name: str) -> dict:
    """One machine's column as a run-ledger manifest document.

    The document is shaped exactly like
    :func:`~repro.evaluation.experiments.build_run_manifest` output, so
    ``python -m repro.evaluation runs compare`` diffs it against any
    recorded baseline with the standard threshold gate.
    """
    machine_name = machine_name.lower()
    manifest = RunManifest(
        run_id="machines-%s" % machine_name,
        kind="machines",
        created=_utc_now().isoformat(timespec="seconds"),
        spec={
            "machine": machine_name,
            "machines": report["machines"],
            "scale": report["scale"],
        },
        workloads={},
    )
    for name, doc in report["workloads"].items():
        column = doc["machines"].get(machine_name)
        if column is None:
            continue
        manifest.workloads[name] = {
            "task_count": doc["task_count"],
            "from_cache": False,
            "schedules": {
                label: {
                    "summary": entry["summary"],
                    "relative_metrics": entry["relative"],
                }
                for label, entry in column["schedules"].items()
            },
        }
    return manifest.to_dict()


def render_machines_report(report: dict) -> str:
    """Markdown: per workload, one row per machine x schedule config."""
    lines = [
        "# Machine comparison (scale %d)" % report["scale"],
        "",
        "Machines: %s" % ", ".join(report["machines"]),
        "",
    ]
    for name, doc in report["workloads"].items():
        lines += [
            "## %s — %d tasks" % (name, doc["task_count"]),
            "",
            "recorded once (%d phases, %d events); every machine "
            "simulated by trace replay, zero re-interpretation."
            % (doc["recorded_phases"], doc["recorded_events"]),
            "",
            "| machine | schedule | time (ms) | energy (mJ) | EDP (uJ*s) "
            "| EDP vs CAE | placement | migrations |",
            "|---|---|---:|---:|---:|---:|---|---:|",
        ]
        for machine_name in report["machines"]:
            schedules = doc["machines"][machine_name]["schedules"]
            for label, entry in schedules.items():
                summary = entry["summary"]
                placement = summary.get("placement")
                placement_text = (
                    "%s->%s" % (placement["access"], placement["execute"])
                    if placement else "—"
                )
                lines.append(
                    "| %s | %s | %.3f | %.3f | %.3f | %.3f | %s | %s |"
                    % (
                        machine_name, label,
                        summary["time_s"] * 1e3,
                        summary["energy_j"] * 1e3,
                        summary["edp_js"] * 1e6,
                        entry["relative"]["edp"],
                        placement_text,
                        summary.get("migrations", "—"),
                    )
                )
        lines.append("")
    lines.append(
        "'EDP vs CAE' is relative to the same machine's coupled run at "
        "fmax (lower is better)."
    )
    return "\n".join(lines)


__all__ = [
    "compare_machines",
    "machines_manifest",
    "render_machines_report",
]
