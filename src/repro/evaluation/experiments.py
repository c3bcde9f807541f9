"""Experiment harness: everything Section 6 reports.

One profiled run per (workload, scheme) produces the
frequency-independent phase profiles; every figure and table is then
evaluated analytically from those profiles — mirroring the paper's
methodology of profiling at each frequency and combining with the power
model (Section 3.1).

Profiling goes through :mod:`repro.engine`: :func:`run_all` and
:func:`run_workload` build an :class:`~repro.engine.ExperimentSpec` and
hand it to :func:`~repro.engine.run_experiment`, which fans the
(workload, scheme, scale, config) matrix over a process pool
(``jobs=``) and serves repeat runs from the persistent profile cache
(``cache=``).

Entry points:

* :func:`table1_rows` — Table 1 (application characteristics);
* :func:`figure3_rows` — Figure 3 a/b/c (time / energy / EDP, normalized
  to CAE at max frequency, for the five configurations);
* :func:`figure4_series` — Figure 4 (per-frequency stacked time/energy
  profiles for Cholesky, FFT and LibQ);
* :func:`headline_numbers` — Section 6.1's scalar claims (EDP gains at
  500 ns and 0 ns transition latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from ..engine import ExperimentSpec, WorkloadRun, run_experiment
from ..engine.cache import _config_material, cache_key
from ..engine.spec import EngineResult
from ..obs.ledger import RunLedger, RunManifest
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.timeline import energy_attribution
from ..power.frequency import FixedPolicy, FrequencyPolicy
from ..runtime.scheduler import DAEScheduler, ScheduleResult
from ..runtime.task import Scheme
from ..sim.config import MachineConfig
from ..transform.access_phase import AccessPhaseOptions
from ..workloads import Workload

#: The five configurations of Figure 3, in legend order:
#: (label, profile stream, run scheme, policy name).
FIGURE3_CONFIGS = (
    ("CAE (Optimal f.)", Scheme.CAE, Scheme.CAE, "optimal"),
    ("Manual DAE (Min/Max f.)", Scheme.MANUAL, Scheme.DAE, "minmax"),
    ("Manual DAE (Optimal f.)", Scheme.MANUAL, Scheme.DAE, "optimal"),
    ("Compiler DAE (Min/Max f.)", Scheme.DAE, Scheme.DAE, "minmax"),
    ("Compiler DAE (Optimal f.)", Scheme.DAE, Scheme.DAE, "optimal"),
)


def run_workload(workload: Workload, scale: int = 1,
                 config: Optional[MachineConfig] = None, *,
                 options: Optional[AccessPhaseOptions] = None,
                 jobs: int = 1, cache: bool = False,
                 cache_dir: Optional[str] = None) -> WorkloadRun:
    """Compile and profile one workload under all three schemes.

    Callers no longer pre-compile: pass compile-time knobs through the
    keyword-only ``options``.  ``cache=True`` reuses (and fills) the
    persistent profile cache; ``jobs`` is accepted for symmetry with
    :func:`run_all` (a single workload is always one job).
    """
    result = run_experiment(ExperimentSpec(
        workloads=(workload,), scale=scale,
        config=config or MachineConfig(), options=options,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    ))
    return result[workload.name]


def run_all(scale: int = 1, config: Optional[MachineConfig] = None,
            workloads=None, *,
            options: Optional[AccessPhaseOptions] = None,
            jobs: int = 1, cache: bool = False,
            cache_dir: Optional[str] = None) -> EngineResult:
    """Profile ``workloads`` (default: all seven) under all schemes.

    Returns an :class:`~repro.engine.EngineResult` — a mapping
    ``workload name -> WorkloadRun`` (as before) that additionally
    carries the engine's execution stats.  ``jobs > 1`` profiles
    workloads in parallel worker processes; ``cache=True`` makes repeat
    runs near-instant.
    """
    result = run_experiment(ExperimentSpec(
        workloads=tuple(workloads) if workloads else (),
        scale=scale, config=config or MachineConfig(), options=options,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    ))
    return result


def schedule(run: WorkloadRun, scheme: Union[Scheme, str],
             policy: FrequencyPolicy,
             config: MachineConfig) -> ScheduleResult:
    """Schedule one profiled run under ``scheme`` with ``policy``.

    ``scheme`` selects both the profile stream and the execution mode
    (CAE runs coupled; DAE/MANUAL replay their access streams under the
    DAE runtime).
    """
    scheme = Scheme(scheme)
    stream = Scheme.CAE if scheme is Scheme.CAE else scheme
    run_scheme = Scheme.CAE if scheme is Scheme.CAE else Scheme.DAE
    scheduler = DAEScheduler(config)
    return scheduler.run(run.profiles[stream.value].tasks, run_scheme, policy)


def relative_metrics(result: ScheduleResult,
                     baseline: ScheduleResult) -> dict[str, float]:
    """Normalized time/energy/EDP, from the results' ``summary()`` dicts
    (the one place schedule arithmetic lives)."""
    rs, bs = result.summary(), baseline.summary()
    return {
        "time": rs["time_s"] / bs["time_s"],
        "energy": rs["energy_j"] / bs["energy_j"],
        "edp": rs["edp_js"] / bs["edp_js"],
    }


# -- run-ledger manifests ------------------------------------------------------

#: The run-ledger schedule configurations, as (label, profile stream,
#: run scheme, policy name).  The first entry — coupled execution at
#: max frequency — is the ``relative_metrics`` baseline for the rest.
MANIFEST_CONFIGS = (
    ("CAE (Max f.)", Scheme.CAE, Scheme.CAE, "fmax"),
    ("Compiler DAE (Optimal f.)", Scheme.DAE, Scheme.DAE, "optimal"),
    ("Manual DAE (Optimal f.)", Scheme.MANUAL, Scheme.DAE, "optimal"),
)


def _spec_document(spec: ExperimentSpec, workload_names: list) -> dict:
    """The manifest's ``spec`` section: the knobs that determine the
    simulated results, plus a content hash over exactly those knobs
    (execution knobs like ``jobs``/``cache`` are recorded but excluded
    from the hash — they cannot change any number)."""
    material = {
        "kind": "run-manifest-spec",
        "scale": spec.scale,
        "schemes": [s.value for s in spec.schemes],
        "config": _config_material(spec.config),
        "workloads": list(workload_names),
        "manifest_configs": [
            [label, stream.value, scheme.value, policy]
            for label, stream, scheme, policy in MANIFEST_CONFIGS
        ],
    }
    return {
        "key": cache_key(material),
        "scale": spec.scale,
        "schemes": [s.value for s in spec.schemes],
        "interp": spec.interp,
        "jobs": spec.jobs,
        "cache": spec.cache,
        "workloads": list(workload_names),
    }


def build_run_manifest(result: EngineResult, kind: str = "engine",
                       config: Optional[MachineConfig] = None,
                       registry: Optional[MetricsRegistry] = None,
                       ) -> RunManifest:
    """Build a run-ledger manifest from one engine result.

    Schedules every workload under :data:`MANIFEST_CONFIGS` (timelines
    on), capturing per configuration the ``summary()``, the metrics
    relative to the CAE@fmax baseline, and the energy-attribution tree.
    ``registry`` defaults to the process-global metrics registry, whose
    snapshot (engine pool/cache telemetry) rides along.
    """
    config = config or result.spec.config
    registry = get_registry() if registry is None else registry
    manifest = RunManifest(kind=kind)
    manifest.spec = _spec_document(result.spec, list(result))
    manifest.stats = result.stats.as_dict()
    manifest.metrics = registry.snapshot()
    for name, run in result.items():
        schedules: dict = {}
        baseline: Optional[ScheduleResult] = None
        for label, stream, scheme, policy in MANIFEST_CONFIGS:
            scheduler = DAEScheduler(config)
            scheduled = scheduler.run(
                run.profiles[stream.value].tasks, scheme,
                FrequencyPolicy.from_name(policy, config),
                record_timeline=True,
            )
            if baseline is None:
                baseline = scheduled
            schedules[label] = {
                "summary": scheduled.summary(),
                "relative_metrics": relative_metrics(scheduled, baseline),
                "energy": energy_attribution(scheduled.timeline),
            }
        manifest.workloads[name] = {
            "task_count": run.task_count,
            "from_cache": run.from_cache,
            "schedules": schedules,
        }
    return manifest


def record_run(result: EngineResult,
               ledger: Optional[Union[RunLedger, str]] = None,
               kind: str = "engine",
               config: Optional[MachineConfig] = None):
    """Build a manifest for ``result`` and append it to the ledger.

    ``ledger`` is a :class:`RunLedger`, a directory path, or ``None``
    for the default location.  Returns ``(manifest, path)``.
    """
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    manifest = build_run_manifest(result, kind=kind, config=config)
    path = ledger.record(manifest)
    return manifest, path


# -- Table 1 ------------------------------------------------------------------


@dataclass
class Table1Row:
    name: str
    affine_loops: int
    total_loops: int
    tasks: int
    ta_percent: float
    ta_usec: float
    paper_affine: int
    paper_total: int
    paper_tasks: int
    paper_ta_percent: float
    paper_ta_usec: float


def table1_rows(runs: Mapping[str, WorkloadRun],
                config: Optional[MachineConfig] = None) -> list[Table1Row]:
    """Application characteristics (Table 1), paper vs. measured.

    TA% and TA(µs) are measured like the paper's: access phases at fmin,
    execute phases at fmax (the Min/Max configuration).
    """
    config = config or MachineConfig()
    rows = []
    for name, run in runs.items():
        dae = run.profiles[Scheme.DAE.value]
        access_total_ns = 0.0
        execute_total_ns = 0.0
        access_phases = 0
        for task in dae.tasks:
            if task.access is not None:
                access_total_ns += task.access.time_ns(config.fmin, config)
                access_phases += 1
            execute_total_ns += task.execute.time_ns(config.fmax, config)
        total = access_total_ns + execute_total_ns
        ta_percent = 100.0 * access_total_ns / total if total else 0.0
        ta_usec = (
            access_total_ns / access_phases / 1000.0 if access_phases else 0.0
        )
        paper = run.workload.paper
        rows.append(Table1Row(
            name=name,
            affine_loops=run.compiled.affine_loops(),
            total_loops=run.compiled.total_loops(),
            tasks=run.task_count,
            ta_percent=ta_percent,
            ta_usec=ta_usec,
            paper_affine=paper.affine_loops,
            paper_total=paper.total_loops,
            paper_tasks=paper.tasks,
            paper_ta_percent=paper.ta_percent,
            paper_ta_usec=paper.ta_usec,
        ))
    return rows


# -- Figure 3 -----------------------------------------------------------------


@dataclass
class Figure3Row:
    """One workload's five bars, normalized to CAE at fmax."""

    name: str
    time: dict[str, float] = field(default_factory=dict)
    energy: dict[str, float] = field(default_factory=dict)
    edp: dict[str, float] = field(default_factory=dict)


def figure3_rows(runs: Mapping[str, WorkloadRun],
                 config: Optional[MachineConfig] = None) -> list[Figure3Row]:
    """Figure 3 (a) time, (b) energy, (c) EDP for every workload plus
    the geometric mean, normalized to coupled execution at fmax."""
    config = config or MachineConfig()
    rows: list[Figure3Row] = []
    for name, run in runs.items():
        baseline = schedule(
            run, Scheme.CAE, FrequencyPolicy.from_name("fmax", config), config
        )
        row = Figure3Row(name=name)
        for label, stream, scheme, policy in FIGURE3_CONFIGS:
            scheduler = DAEScheduler(config)
            result = scheduler.run(
                run.profiles[stream.value].tasks, scheme,
                FrequencyPolicy.from_name(policy, config),
            )
            relative = relative_metrics(result, baseline)
            row.time[label] = relative["time"]
            row.energy[label] = relative["energy"]
            row.edp[label] = relative["edp"]
        rows.append(row)
    rows.append(_geomean_row(rows))
    return rows


def _geomean_row(rows: list[Figure3Row]) -> Figure3Row:
    gm = Figure3Row(name="G.Mean")
    if not rows:
        return gm
    labels = rows[0].time.keys()
    for metric in ("time", "energy", "edp"):
        for label in labels:
            values = [getattr(row, metric)[label] for row in rows]
            getattr(gm, metric)[label] = math.exp(
                sum(math.log(v) for v in values) / len(values)
            )
    return gm


# -- Figure 4 -----------------------------------------------------------------


@dataclass
class Figure4Point:
    """One bar of a Figure 4 profile: stacked components at one execute
    frequency (access phases run at fmin, as in the paper)."""

    freq_ghz: float
    prefetch_ns: float
    task_ns: float
    osi_ns: float
    prefetch_nj: float
    task_nj: float
    osi_nj: float

    @property
    def total_ns(self) -> float:
        return self.prefetch_ns + self.task_ns + self.osi_ns

    @property
    def total_nj(self) -> float:
        return self.prefetch_nj + self.task_nj + self.osi_nj


@dataclass
class Figure4Series:
    """One configuration's bars (CAE / Manual DAE / Auto DAE)."""

    label: str
    points: list[Figure4Point] = field(default_factory=list)


class _SweepPolicy(FrequencyPolicy):
    """Access at fmin, execute at a fixed sweep point (Figure 4)."""

    name = "sweep"

    def __init__(self, execute_point):
        self.execute = execute_point

    def access_point(self, profile, config):
        return config.fmin

    def execute_point(self, profile, config):
        return self.execute


#: Figure 4's three configurations: (label, profile stream, run scheme).
FIGURE4_CONFIGS = (
    ("CAE", Scheme.CAE, Scheme.CAE),
    ("Manual DAE", Scheme.MANUAL, Scheme.DAE),
    ("Auto DAE", Scheme.DAE, Scheme.DAE),
)


def figure4_series(run: WorkloadRun,
                   config: Optional[MachineConfig] = None
                   ) -> list[Figure4Series]:
    """Figure 4 for one workload: CAE, Manual DAE and Auto DAE as the
    execute frequency sweeps fmin→fmax (access pinned at fmin)."""
    config = config or MachineConfig()
    series = []
    for label, stream, scheme in FIGURE4_CONFIGS:
        entry = Figure4Series(label=label)
        for point in config.operating_points:
            scheduler = DAEScheduler(config)
            if scheme is Scheme.CAE:
                policy: FrequencyPolicy = FixedPolicy(point)
            else:
                policy = _SweepPolicy(point)
            result = scheduler.run(
                run.profiles[stream.value].tasks, scheme, policy
            )
            buckets = result.buckets
            entry.points.append(Figure4Point(
                freq_ghz=point.freq_ghz,
                prefetch_ns=buckets.prefetch_ns,
                task_ns=buckets.task_ns,
                osi_ns=buckets.osi_ns,
                prefetch_nj=buckets.prefetch_nj,
                task_nj=buckets.task_nj,
                osi_nj=buckets.osi_nj,
            ))
        series.append(entry)
    return series


#: The three Figure 4 case studies (Section 6.2).
FIGURE4_WORKLOADS = ("cholesky", "fft", "libq")


# -- headline scalars (Section 6.1) --------------------------------------------


@dataclass
class HeadlineNumbers:
    """Geomean EDP improvements and time penalty at both latencies."""

    auto_edp_gain_500ns: float
    manual_edp_gain_500ns: float
    auto_edp_gain_0ns: float
    manual_edp_gain_0ns: float
    auto_time_penalty_500ns: float
    auto_time_penalty_0ns: float


def headline_numbers(runs: Mapping[str, WorkloadRun],
                     config: Optional[MachineConfig] = None) -> HeadlineNumbers:
    config = config or MachineConfig()
    zero_latency = replace(config, dvfs_transition_ns=0.0)

    def geomean_ratios(cfg: MachineConfig, stream: Scheme):
        times, edps = [], []
        for run in runs.values():
            scheduler = DAEScheduler(cfg)
            base = scheduler.run(
                run.profiles[Scheme.CAE.value].tasks, Scheme.CAE,
                FixedPolicy(cfg.fmax),
            )
            result = scheduler.run(
                run.profiles[stream.value].tasks, Scheme.DAE,
                FrequencyPolicy.from_name("optimal", cfg),
            )
            relative = relative_metrics(result, base)
            times.append(relative["time"])
            edps.append(relative["edp"])
        gm = lambda xs: math.exp(sum(math.log(x) for x in xs) / len(xs))
        return gm(times), gm(edps)

    auto_t_500, auto_d_500 = geomean_ratios(config, Scheme.DAE)
    man_t_500, man_d_500 = geomean_ratios(config, Scheme.MANUAL)
    auto_t_0, auto_d_0 = geomean_ratios(zero_latency, Scheme.DAE)
    man_t_0, man_d_0 = geomean_ratios(zero_latency, Scheme.MANUAL)
    return HeadlineNumbers(
        auto_edp_gain_500ns=1.0 - auto_d_500,
        manual_edp_gain_500ns=1.0 - man_d_500,
        auto_edp_gain_0ns=1.0 - auto_d_0,
        manual_edp_gain_0ns=1.0 - man_d_0,
        auto_time_penalty_500ns=auto_t_500 - 1.0,
        auto_time_penalty_0ns=auto_t_0 - 1.0,
    )
