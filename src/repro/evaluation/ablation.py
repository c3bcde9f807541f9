"""Trace-backed machine-config ablation sweeps.

The record/replay engine makes "what if the machine were different?"
questions cheap: interpretation depends only on program semantics and
memory contents — never on the cache model — so one recorded profiling
run yields event traces that are valid under *any* machine.  A
config ablation is therefore a machine comparison: each swept value
becomes a single-type machine (:func:`~repro.machines.homogeneous_machine`,
which validates it before anything is recorded), and
:func:`ablate_workload` hands those machines to the ``machines`` verb's
:class:`~repro.evaluation.machines.MachineSweep` — record the full
scheme matrix once, replay it through each variant's cache hierarchy,
no re-interpretation — then schedules each variant to report
time/energy/EDP.

Sweepable parameters (:data:`SWEEP_PARAMS`) cover cache capacities and
latencies, DRAM latency, and the memory-level-parallelism knobs.  Every
recorded phase replays, so no variant re-interprets anything.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..machines import homogeneous_machine
from ..sim.config import MachineConfig, MachineConfigError
from ..workloads import Workload
from .experiments import MANIFEST_CONFIGS, schedule_configs
from .machines import MachineSweep


def _cache_field(level: str, field_name: str, cast):
    def build(config: MachineConfig, value) -> MachineConfig:
        cache = getattr(config, level)
        return replace(
            config, **{level: replace(cache, **{field_name: cast(value)})}
        )
    return build


def _machine_field(field_name: str, cast):
    def build(config: MachineConfig, value) -> MachineConfig:
        return replace(config, **{field_name: cast(value)})
    return build


def _kib(value) -> int:
    return int(float(value) * 1024)


#: Sweepable machine parameters: name -> (description, builder) where
#: ``builder(base_config, value)`` returns the variant config.  Derived
#: cache geometry recomputes in ``CacheConfig.__post_init__``.
SWEEP_PARAMS = {
    "l1_kb": ("L1 capacity in KiB",
              _cache_field("l1", "size_bytes", _kib)),
    "l2_kb": ("L2 capacity in KiB",
              _cache_field("l2", "size_bytes", _kib)),
    "llc_kb": ("shared LLC capacity in KiB",
               _cache_field("llc", "size_bytes", _kib)),
    "l1_lat": ("L1 hit latency in cycles",
               _cache_field("l1", "latency_cycles", int)),
    "l2_lat": ("L2 hit latency in cycles",
               _cache_field("l2", "latency_cycles", int)),
    "llc_lat": ("LLC hit latency in cycles",
                _cache_field("llc", "latency_cycles", int)),
    "mem_ns": ("DRAM access latency in ns",
               _machine_field("mem_latency_ns", float)),
    "mlp_demand": ("demand-load miss overlap",
                   _machine_field("mlp_demand", float)),
    "mlp_prefetch": ("software-prefetch miss overlap",
                     _machine_field("mlp_prefetch", float)),
    "mlp_store": ("store-buffer drain overlap",
                  _machine_field("mlp_store", float)),
    "mlp_hw_stream": ("hardware-stream miss overlap",
                      _machine_field("mlp_hw_stream", float)),
}

#: The schedule configurations each variant reports, as (label,
#: profile stream, policy name): the run ledger's, so a variant equal
#: to a registered machine reports that machine's ``machines`` column.
ABLATE_CONFIGS = MANIFEST_CONFIGS


def ablate_workload(workload: Workload, param: str, values: Sequence,
                    *, scale: int = 1,
                    config: Optional[MachineConfig] = None) -> dict:
    """Sweep ``param`` over ``values`` for one workload.

    Builds (and validates) every variant first, records the
    three-scheme profile matrix once under the base ``config``, then
    replays the recorded traces through each variant's cache
    hierarchy and schedules the result.  Returns a JSON-able report
    dict (render with :func:`render_ablation_report`).

    Raises :class:`~repro.sim.config.MachineConfigError` naming the
    parameter and value when a variant is not a valid machine.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(
            "unknown sweep parameter %r; expected one of %s"
            % (param, ", ".join(sorted(SWEEP_PARAMS)))
        )
    _, build = SWEEP_PARAMS[param]
    base = config or MachineConfig()
    variants = []
    for value in values:
        name = "%s=%g" % (param, value)
        try:
            variants.append(homogeneous_machine(name, build(base, value)))
        except (MachineConfigError, ValueError, OverflowError) as exc:
            # int() of NaN or an infinity fails before validation can.
            raise MachineConfigError(
                "%s is not a valid machine: %s" % (name, exc)
            ) from None
    sweep = MachineSweep(workload, scale, base)
    rows = [
        {"value": value, "configs": {
            label: {"summary": result.summary(), "relative": relative}
            for label, result, relative in schedule_configs(
                run, machine, ABLATE_CONFIGS,
            )
        }}
        for value, machine, run in zip(values, variants,
                                       sweep.runs(variants))
    ]
    return {
        "workload": workload.name,
        "scale": scale,
        "param": param,
        "description": SWEEP_PARAMS[param][0],
        "values": list(values),
        "replayed": True,
        "recorded_phases": sweep.store.recorded_phases,
        "recorded_events": sweep.store.recorded_events,
        "rows": rows,
    }


def render_ablation_report(report: dict) -> str:
    """Markdown table: one row per swept value, the Figure 3-style
    relative metrics per schedule configuration."""
    lines = [
        "# Ablation: %s — %s (`%s`)"
        % (report["workload"], report["description"], report["param"]),
        "",
        "Recorded once (%d phases, %d events); every variant "
        "re-simulated by trace replay, no re-interpretation."
        % (report["recorded_phases"], report["recorded_events"]),
        "",
        "| %s | CAE time (ms) | DAE time | DAE energy | DAE EDP "
        "| Manual EDP |" % report["param"],
        "|---:|---:|---:|---:|---:|---:|",
    ]
    for row in report["rows"]:
        cae = row["configs"]["CAE (Max f.)"]["summary"]
        dae = row["configs"]["Compiler DAE (Optimal f.)"]["relative"]
        manual = row["configs"]["Manual DAE (Optimal f.)"]["relative"]
        lines.append(
            "| %g | %.3f | %.3f | %.3f | %.3f | %.3f |"
            % (row["value"], cae["time_s"] * 1e3,
               dae["time"], dae["energy"], dae["edp"], manual["edp"])
        )
    lines.append("")
    lines.append(
        "DAE/Manual columns are relative to CAE at fmax for the same "
        "variant (lower is better)."
    )
    return "\n".join(lines)


__all__ = [
    "ABLATE_CONFIGS", "SWEEP_PARAMS",
    "ablate_workload", "render_ablation_report",
]
