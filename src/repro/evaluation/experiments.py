"""Experiment harness: everything Section 6 reports.

One profiled run per (workload, scheme) produces the
frequency-independent phase profiles; every figure and table is then
evaluated analytically from those profiles — mirroring the paper's
methodology of profiling at each frequency and combining with the power
model (Section 3.1).

Profiling goes through :mod:`repro.engine`: :func:`run_all` and
:func:`run_workload` build an :class:`~repro.engine.ExperimentSpec` and
hand it to :func:`~repro.engine.run_experiment`, which fans the
(workload, scheme, scale, machine) matrix over a process pool
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

Figure 3, the headline numbers and run manifests schedule through
:func:`schedule_configs`: a table of (label, profile stream, policy
name) configurations, each stream run under its
:attr:`~repro.runtime.task.Scheme.run_scheme`, normalized to the
table's first entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Union

from ..engine import ExperimentSpec, WorkloadRun, run_experiment
from ..engine.cache import cache_key, machine_material
from ..engine.spec import EngineResult
from ..machines.model import MachineLike
from ..obs.ledger import RunLedger, RunManifest
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.timeline import energy_attribution
from ..power.frequency import FixedPolicy, FrequencyPolicy
from ..runtime.scheduler import DAEScheduler, ScheduleResult
from ..runtime.task import Scheme
from ..sim.config import MachineConfig
from ..transform.access_phase import AccessPhaseOptions
from ..workloads import Workload

#: The run-ledger schedule configurations, as (label, profile stream,
#: policy name).  The first entry — coupled execution at max frequency
#: — is the ``relative_metrics`` baseline for the rest.  Run manifests,
#: the ``machines``, ``trace`` and ``ablate`` verbs and the headline
#: numbers all schedule these.
MANIFEST_CONFIGS = (
    ("CAE (Max f.)", Scheme.CAE, "fmax"),
    ("Compiler DAE (Optimal f.)", Scheme.DAE, "optimal"),
    ("Manual DAE (Optimal f.)", Scheme.MANUAL, "optimal"),
)

#: The five configurations of Figure 3, in legend order:
#: (label, profile stream, policy name).
FIGURE3_CONFIGS = (
    ("CAE (Optimal f.)", Scheme.CAE, "optimal"),
    ("Manual DAE (Min/Max f.)", Scheme.MANUAL, "minmax"),
    ("Manual DAE (Optimal f.)", Scheme.MANUAL, "optimal"),
    ("Compiler DAE (Min/Max f.)", Scheme.DAE, "minmax"),
    ("Compiler DAE (Optimal f.)", Scheme.DAE, "optimal"),
)


def run_workload(workload: Workload, scale: int = 1,
                 config: Optional[MachineConfig] = None, *,
                 options: Optional[AccessPhaseOptions] = None,
                 cache: bool = False,
                 cache_dir: Optional[str] = None) -> WorkloadRun:
    """Compile and profile one workload under all three schemes.

    Callers no longer pre-compile: pass compile-time knobs through the
    keyword-only ``options``.  ``cache=True`` reuses (and fills) the
    persistent profile cache.
    """
    result = run_experiment(ExperimentSpec(
        workloads=(workload,), scale=scale, machine=config,
        options=options, cache=cache, cache_dir=cache_dir,
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
        scale=scale, machine=config, options=options,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    ))
    return result


def schedule(run: WorkloadRun, scheme: Union[Scheme, str],
             policy: FrequencyPolicy,
             config: MachineConfig) -> ScheduleResult:
    """Schedule one profiled run's ``scheme`` stream with ``policy``,
    under the stream's :attr:`~repro.runtime.task.Scheme.run_scheme`
    (CAE runs coupled; DAE/MANUAL replay their access streams under the
    DAE runtime).
    """
    stream = Scheme(scheme)
    return DAEScheduler(config).run(
        run.profiles[stream.value].tasks, stream.run_scheme, policy,
    )


def schedule_configs(run: WorkloadRun, machine: MachineLike,
                     configs: Iterable = MANIFEST_CONFIGS,
                     record_timeline: bool = False,
                     ) -> list[tuple[str, ScheduleResult, dict]]:
    """Schedule ``run`` under each (label, profile stream, policy name)
    of ``configs`` on ``machine``, in order.

    Each entry is (label, result, metrics relative to the first
    configuration's result).  One scheduler serves every configuration,
    and each policy is resolved against its machine's config (a bare
    config is that same object).  The profiles' phase terms, EDP points
    and winners' energies are keyed by the config's
    :attr:`~repro.sim.config.MachineConfig.terms_key`, so they are
    shared here and with any call under a config that differs only in
    how a DVFS switch is priced.  With ``record_timeline`` every result
    records a timeline that passes validation and the exact energy
    roll-up check.
    """
    scheduler = DAEScheduler(machine)
    config = scheduler.machine.config
    schedules = []
    baseline: Optional[ScheduleResult] = None
    for label, stream, policy in configs:
        result = scheduler.run(
            run.profiles[stream.value].tasks, stream.run_scheme,
            FrequencyPolicy.from_name(policy, config),
            record_timeline=record_timeline,
        )
        if record_timeline:
            result.timeline.validate(result.time_ns)
            result.timeline.validate_energy(result.energy_nj)
        if baseline is None:
            baseline = result
        schedules.append((label, result, relative_metrics(result, baseline)))
    return schedules


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


def _spec_document(spec: ExperimentSpec, workload_names: list) -> dict:
    """The manifest's ``spec`` section: the knobs that determine the
    simulated results, plus a content hash over exactly those knobs
    (execution knobs like ``jobs``/``cache`` are recorded but excluded
    from the hash — they cannot change any number)."""
    material = {
        "kind": "run-manifest-spec",
        "scale": spec.scale,
        "schemes": [s.value for s in spec.schemes],
        "machine": machine_material(spec.machine),
        "workloads": list(workload_names),
        "manifest_configs": [
            [label, stream.value, stream.run_scheme.value, policy]
            for label, stream, policy in MANIFEST_CONFIGS
        ],
    }
    return {
        "key": cache_key(material),
        "machine": spec.machine.name,
        "scale": spec.scale,
        "schemes": [s.value for s in spec.schemes],
        "interp": spec.interp,
        "jobs": spec.jobs,
        "cache": spec.cache,
        "workloads": list(workload_names),
    }


def build_run_manifest(result: EngineResult, kind: str = "engine",
                       registry: Optional[MetricsRegistry] = None,
                       ) -> RunManifest:
    """Build a run-ledger manifest from one engine result.

    Schedules every workload under :data:`MANIFEST_CONFIGS` on the
    machine that profiled it (:func:`schedule_configs`), capturing
    per configuration the ``summary()``, the metrics relative to the
    CAE@fmax baseline, and the energy-attribution tree.  ``registry``
    defaults to the process-global metrics registry, whose snapshot
    (engine pool/cache telemetry) rides along.
    """
    registry = get_registry() if registry is None else registry
    manifest = RunManifest(kind=kind)
    manifest.spec = _spec_document(result.spec, list(result))
    manifest.stats = result.stats.as_dict()
    manifest.metrics = registry.snapshot()
    for name, run in result.items():
        manifest.workloads[name] = {
            "task_count": run.task_count,
            "from_cache": run.from_cache,
            "schedules": {
                label: {
                    "summary": scheduled.summary(),
                    "relative_metrics": relative,
                    "energy": energy_attribution(scheduled.timeline),
                }
                for label, scheduled, relative in schedule_configs(
                    run, result.spec.machine, record_timeline=True,
                )
            },
        }
    return manifest


def record_run(result: EngineResult,
               ledger: Optional[Union[RunLedger, str]] = None,
               kind: str = "engine"):
    """Build a manifest for ``result`` and append it to the ledger.

    ``ledger`` is a :class:`RunLedger`, a directory path, or ``None``
    for the default location.  Returns ``(manifest, path)``.
    """
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    manifest = build_run_manifest(result, kind=kind)
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
        row = Figure3Row(name=name)
        for label, _, relative in schedule_configs(
            run, config, MANIFEST_CONFIGS[:1] + FIGURE3_CONFIGS,
        )[1:]:
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
            getattr(gm, metric)[label] = _geomean(
                [getattr(row, metric)[label] for row in rows]
            )
    return gm


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


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


#: Figure 4's three configurations: (label, profile stream).  CAE runs
#: both phases at the sweep point; the DAE streams pin access at fmin.
FIGURE4_CONFIGS = (
    ("CAE", Scheme.CAE),
    ("Manual DAE", Scheme.MANUAL),
    ("Auto DAE", Scheme.DAE),
)


def figure4_series(run: WorkloadRun,
                   config: Optional[MachineConfig] = None
                   ) -> list[Figure4Series]:
    """Figure 4 for one workload: CAE, Manual DAE and Auto DAE as the
    execute frequency sweeps fmin→fmax (access pinned at fmin)."""
    config = config or MachineConfig()
    series = []
    for label, stream in FIGURE4_CONFIGS:
        entry = Figure4Series(label=label)
        for point in config.operating_points:
            if stream is Scheme.CAE:
                policy: FrequencyPolicy = FixedPolicy(point)
            else:
                policy = _SweepPolicy(point)
            buckets = schedule(run, stream, policy, config).buckets
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
    """Section 6.1's claims: the geomeans, over ``runs``, of
    :data:`MANIFEST_CONFIGS`' Compiler and Manual DAE against CAE at
    fmax, at ``config``'s transition latency and at zero latency."""
    config = config or MachineConfig()
    zero_latency = replace(config, dvfs_transition_ns=0.0)

    def geomean_ratios(cfg: MachineConfig):
        """DAE's and MANUAL's (time, EDP) geomeans, in that order."""
        columns = zip(*(
            [relative for _, _, relative in schedule_configs(run, cfg)[1:]]
            for run in runs.values()
        ))
        return [
            (_geomean([r["time"] for r in column]),
             _geomean([r["edp"] for r in column]))
            for column in columns
        ]

    (auto_t_500, auto_d_500), (man_t_500, man_d_500) = geomean_ratios(config)
    (auto_t_0, auto_d_0), (man_t_0, man_d_0) = geomean_ratios(zero_latency)
    return HeadlineNumbers(
        auto_edp_gain_500ns=1.0 - auto_d_500,
        manual_edp_gain_500ns=1.0 - man_d_500,
        auto_edp_gain_0ns=1.0 - auto_d_0,
        manual_edp_gain_0ns=1.0 - man_d_0,
        auto_time_penalty_500ns=auto_t_500 - 1.0,
        auto_time_penalty_0ns=auto_t_0 - 1.0,
    )
