"""``tune_workload``: the end-to-end auto-tuning driver.

One call profiles a workload through the evaluation engine (with its
persistent profile cache), evaluates candidate operating points at
*schedule level* — full :meth:`DAEScheduler.run`, work stealing and
DVFS-transition energy included — under a pluggable
:class:`~repro.tuning.objectives.Objective`, and installs the winner as
the ``"tuned"`` frequency policy.

Candidate evaluations are:

* **memoized** — each distinct (access, execute) pair is scheduled once
  per process;
* **persistently cached** — keyed on the candidate point pair plus the
  same material that keys the profile cache, so a warm rerun re-profiles
  nothing and re-schedules nothing;
* **scheduled in-process, in request order** — one candidate schedule
  costs well under a process pool's dispatch and result traffic.

Why schedule-level: the paper's per-phase exhaustive EDP search
(Section 6.1, :class:`OptimalEDPPolicy`) optimizes each phase in
isolation, but a schedule's EDP also pays transition latency/energy,
queueing, stealing and idle tails — so the phase-local optimum is not
the schedule optimum (see ``DESIGN.md`` §10).  The tuner reports both,
and the regression suite holds the tuned pair to *never lose* to the
phase-local baseline.

Every search runs on a :class:`~repro.machines.model.MachineModel`
(a bare config is the single-type machine) over its placements × point
pairs, one :class:`_CandidateEvaluator` per placement.  A single-type
machine has one placement; a heterogeneous one also tries its
all-big and all-LITTLE placements (see :func:`tune_workload`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..engine import ExperimentSpec, ProfileCache, run_experiment
from ..engine.cache import cache_key, key_material, machine_material
from ..engine.products import profile_workload
from ..interp.trace import TraceStore
from ..machines import MachineModel, machine_stream
from ..machines.model import MachineLike, as_machine
from ..obs.events import get_collector
from ..power.frequency import FrequencyPolicy
from ..runtime.scheduler import DAEScheduler, ScheduleResult
from ..runtime.task import Scheme, StreamProfile
from ..sim.config import MachineConfig
from ..sim.timing import PhaseProfile
from ..transform.access_phase import AccessPhaseOptions
from ..workloads import Workload
from .objectives import Objective, resolve_objective
from .pareto import ParetoPoint, pareto_front
from .policy import TunedPolicy, install_tuned_policy
from .search import (
    STRATEGIES,
    CandidatePair,
    SearchOutcome,
    coordinate_descent,
    golden_section,
    grid_search_pair,
    grid_search_point,
    nearest_point,
    interpolate_point,
    sorted_points,
)

#: Candidate-cache payload layout; part of every candidate cache key.
CANDIDATE_FORMAT = 1

#: Named reference policies pinned into every tuning report/front, as
#: (label, access, execute) selectors over the machine config.
_REFERENCE_PAIRS = (
    ("policy:minmax", lambda c: c.fmin, lambda c: c.fmax),
    ("policy:fmin", lambda c: c.fmin, lambda c: c.fmin),
    ("policy:fmax", lambda c: c.fmax, lambda c: c.fmax),
)


def pair_label(pair: CandidatePair) -> str:
    """Stable display/JSON label for a candidate pair."""
    return "A%.1f/E%.1f" % pair.key


@dataclass
class TuningCandidate:
    """One evaluated candidate: a point pair (or the phase-local
    baseline) with its scheduled cost and objective value."""

    label: str
    pair: Optional[CandidatePair]
    time_ns: float
    energy_nj: float
    value: float
    feasible: bool
    transitions: int = 0
    steals: int = 0
    from_cache: bool = False

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    @property
    def energy_j(self) -> float:
        return self.energy_nj * 1e-9

    @property
    def edp_js(self) -> float:
        return self.time_s * self.energy_j

    def as_dict(self) -> dict:
        doc = {
            "label": self.label,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "edp_js": self.edp_js,
            "value": self.value if self.feasible else None,
            "feasible": self.feasible,
            "transitions": self.transitions,
            "steals": self.steals,
        }
        if self.pair is not None:
            doc["access_ghz"], doc["execute_ghz"] = self.pair.key
        return doc


@dataclass
class StrategySummary:
    """One strategy's result for reports and benchmarks."""

    name: str
    evaluations: int
    best_label: str
    best_value: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "evaluations": self.evaluations,
            "best": self.best_label,
            "value": self.best_value if self.best_value != float("inf")
            else None,
            "detail": self.detail,
        }


@dataclass
class TuningStats:
    """Execution counters for one :func:`tune_workload` call.

    ``schedule_evals`` counts actual scheduler runs (cache hits and
    memo hits are free); a fully-warm rerun therefore shows
    ``schedule_evals == 0`` and ``cache_hits == requests``.
    """

    requests: int = 0          # distinct candidate pairs requested
    schedule_evals: int = 0    # scheduler.run calls actually executed
    cache_hits: int = 0
    cache_misses: int = 0
    phase_evals: int = 0       # phase-local power-model evaluations
    engine: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "schedule_evals": self.schedule_evals,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "phase_evals": self.phase_evals,
            "engine": dict(self.engine),
        }


@dataclass
class TuningResult:
    """Everything one tuning run produced."""

    workload: str
    scheme: str
    objective: str
    strategy: str
    scale: int
    best: TuningCandidate
    phase_local: TuningCandidate
    strategies: List[StrategySummary]
    candidates: List[TuningCandidate]
    references: dict[str, TuningCandidate]
    front: List[ParetoPoint]
    policy: Optional[TunedPolicy]
    installed: bool
    stats: TuningStats
    #: Machine-model annotations; ``None`` for plain-config tuning so
    #: machine-less reports stay byte-identical.
    machine: Optional[str] = None
    placement: Optional[dict] = None

    def improvement_over_phase_local(self) -> Optional[float]:
        """Fractional objective improvement of the tuned pair over the
        paper's phase-local baseline (``None`` when undefined)."""
        if not (self.best.feasible and self.phase_local.feasible):
            return None
        if self.phase_local.value == 0.0:
            return None
        return 1.0 - self.best.value / self.phase_local.value

    def as_dict(self) -> dict:
        """Deterministic JSON document (no wall-clock, no cache state —
        repeat runs of the same tuning problem byte-match)."""
        doc = {
            "workload": self.workload,
            "scheme": self.scheme,
            "objective": self.objective,
            "strategy": self.strategy,
            "scale": self.scale,
            "installed": self.installed,
            "best": self.best.as_dict(),
            "phase_local": self.phase_local.as_dict(),
            "improvement_over_phase_local":
                self.improvement_over_phase_local(),
            "strategies": [s.as_dict() for s in self.strategies],
            "references": {
                label: candidate.as_dict()
                for label, candidate in sorted(self.references.items())
            },
            "pareto_front": [
                {"time_s": p.time_s, "energy_j": p.energy_j,
                 "label": p.label}
                for p in self.front
            ],
            "candidates": [c.as_dict() for c in self.candidates],
        }
        if self.machine is not None:
            doc["machine"] = self.machine
            doc["placement"] = self.placement
        return doc


class _PhaseLocalPolicy(FrequencyPolicy):
    """Per-phase grid argmin of an arbitrary objective — the paper's
    Section 6.1 search generalized from EDP to any objective."""

    name = "phase-local"

    def __init__(self, objective: Objective, stats: TuningStats):
        self.objective = objective
        self.stats = stats

    def _argmin(self, profile, config):
        outcome = grid_search_point(
            lambda point: self.objective.phase_value(profile, point, config),
            config.operating_points,
        )
        self.stats.phase_evals += outcome.evaluations
        return outcome.best_point

    def access_point(self, profile, config):
        return self._argmin(profile, config)

    def execute_point(self, profile, config):
        return self._argmin(profile, config)


def _result_payload(result: ScheduleResult) -> dict:
    return {
        "format": CANDIDATE_FORMAT,
        "time_ns": result.time_ns,
        "energy_nj": result.energy_nj,
        "transitions": result.transitions,
        "steals": result.steals,
    }


class _CandidateEvaluator:
    """Schedules candidate pairs on one placement of a machine, with
    memoization and persistent caching.

    ``placement`` is an (access, execute) core-type name pair;
    ``prefix`` starts every candidate label (heterogeneous machines
    name the placement there, because the same point pair exists once
    per placement).
    """

    def __init__(self, stream: StreamProfile, run_scheme: Scheme,
                 machine: MachineModel, placement: tuple[str, str],
                 objective: Objective, workload_name: str,
                 stats: TuningStats,
                 cache: Optional[ProfileCache] = None,
                 material_base: Optional[dict] = None,
                 prefix: str = ""):
        self.stream = stream
        self.run_scheme = run_scheme
        self.machine = machine
        self.placement = placement
        access_type, execute_type = machine.placement(
            run_scheme.value, placement
        )
        self.access_config = access_type.config
        self.execute_config = execute_type.config
        self.objective = objective
        self.workload_name = workload_name
        self.stats = stats
        self.cache = cache if material_base is not None else None
        self.material_base = material_base
        self.prefix = prefix
        self.collector = get_collector()
        self._memo: dict = {}
        self._scheduler = DAEScheduler(machine=machine, placement=placement)

    # -- public API ------------------------------------------------------------

    def grid(self) -> List[CandidatePair]:
        """Every (access, execute) pair over the placed types' tables,
        ascending by access then execute frequency."""
        return [
            CandidatePair(access, execute)
            for access in sorted_points(self.access_config.operating_points)
            for execute in sorted_points(
                self.execute_config.operating_points)
        ]

    def run(self, policy) -> ScheduleResult:
        """One schedule of the placement's tasks under ``policy``."""
        return self._scheduler.run(
            self.stream.tasks, self.run_scheme, policy, record_timeline=False,
        )

    def value(self, pair: CandidatePair) -> float:
        return self.evaluate(pair).value

    def evaluate(self, pair: CandidatePair) -> TuningCandidate:
        self.prefetch([pair])
        return self._memo[pair.key]

    def prefetch(self, pairs: List[CandidatePair]) -> None:
        """Ensure every pair is memoized: served from the persistent
        cache, or scheduled in-process in request order."""
        for pair in pairs:
            if pair.key in self._memo:
                continue
            self.stats.requests += 1
            args = {"workload": self.workload_name, "pair": pair_label(pair)}
            payload = self._cache_load(pair)
            if payload is not None:
                self.stats.cache_hits += 1
                self.collector.instant("tuning.cache.hit", cat="tuning.cache",
                                       args=args)
                self._memo[pair.key] = self._candidate(
                    pair, payload, from_cache=True
                )
                continue
            if self.cache is not None:
                self.stats.cache_misses += 1
                self.collector.instant("tuning.cache.miss",
                                       cat="tuning.cache", args=args)
            self.stats.schedule_evals += 1
            payload = _result_payload(self.run(TunedPolicy.from_pair(pair)))
            self._cache_store(pair, payload)
            self._memo[pair.key] = self._candidate(pair, payload)
            self.collector.instant(
                "tuning.candidate", cat="tuning",
                args={**args, "value": self._memo[pair.key].value},
            )

    def candidates(self) -> List[TuningCandidate]:
        """Every distinct evaluated candidate, sorted by pair key."""
        return [self._memo[key] for key in sorted(self._memo)]

    def _candidate(self, pair: CandidatePair, payload: dict,
                   from_cache: bool = False) -> TuningCandidate:
        time_s = payload["time_ns"] * 1e-9
        energy_j = payload["energy_nj"] * 1e-9
        value = self.objective.evaluate(time_s, energy_j)
        return TuningCandidate(
            label=self.prefix + pair_label(pair),
            pair=pair,
            time_ns=payload["time_ns"],
            energy_nj=payload["energy_nj"],
            value=value,
            feasible=value != float("inf"),
            transitions=payload.get("transitions", 0),
            steals=payload.get("steals", 0),
            from_cache=from_cache,
        )

    # -- persistent cache ------------------------------------------------------

    def _pair_material(self, pair: CandidatePair) -> dict:
        material = dict(self.material_base)
        material["pair"] = [
            pair.access.freq_ghz, pair.access.voltage,
            pair.execute.freq_ghz, pair.execute.voltage,
        ]
        return material

    def _cache_load(self, pair: CandidatePair) -> Optional[dict]:
        if self.cache is None:
            return None
        material = self._pair_material(pair)
        payload = self.cache.load(
            "tune-%s" % self.workload_name, cache_key(material), material
        )
        if payload is not None and payload.get("format") != CANDIDATE_FORMAT:
            return None
        return payload

    def _cache_store(self, pair: CandidatePair, payload: dict) -> None:
        if self.cache is None:
            return
        material = self._pair_material(pair)
        self.cache.store(
            "tune-%s" % self.workload_name, cache_key(material), material,
            payload,
        )


def _candidate_material(profile_material: dict, workload_name: str,
                        stream: Scheme, machine: MachineModel,
                        scale: int) -> dict:
    """Everything a candidate's schedule is a function of except the
    point pair itself."""
    return {
        "kind": "tuning-candidate",
        "format": CANDIDATE_FORMAT,
        "profile_key": cache_key(profile_material),
        "workload": workload_name,
        "stream": stream.value,
        "run_scheme": stream.run_scheme.value,
        "scale": int(scale),
        "machine": machine_material(machine),
        "scheduler": {
            "task_overhead_ns": DAEScheduler.task_overhead_ns,
            "steal_overhead_ns": DAEScheduler.steal_overhead_ns,
            "sleep_power_w": DAEScheduler.sleep_power_w,
        },
    }


def _phase_totals(stream: StreamProfile) -> tuple[PhaseProfile, PhaseProfile]:
    """Whole-run (access, execute) profiles: the per-phase totals the
    continuous strategies optimize over.  A CAE stream has no access
    total, so its execute total stands in (the access coordinate is
    inert)."""
    access, execute = stream.aggregate_access(), stream.aggregate_execute()
    if access.instructions == 0 and access.slots == 0:
        access = execute
    return access, execute


def tune_workload(workload: Union[Workload, str, type], *,
                  objective: Union[Objective, str] = "edp",
                  strategy: str = "all",
                  scheme: Union[Scheme, str] = Scheme.DAE,
                  machine: MachineLike = None,
                  scale: int = 1,
                  cache: bool = True,
                  cache_dir: Optional[str] = None,
                  options: Optional[AccessPhaseOptions] = None,
                  interp: Optional[str] = None,
                  install: bool = True) -> TuningResult:
    """Auto-tune ``workload``'s operating points under ``objective``.

    ``strategy`` is one of :data:`STRATEGIES` or ``"all"``.  Profiling
    goes through the evaluation engine (persistent cache); candidate
    schedules are memoized, persistently cached per point pair, and
    run in-process in request order.  The winning pair is installed as the ``"tuned"`` frequency policy
    unless ``install=False`` (or no candidate is feasible).  ``interp``
    picks the profiling interpreter (``"replay"``, the default, or
    ``"reference"``); it cannot change any profile, only the wall-clock
    cost of the profiling runs.

    ``machine`` is resolved by :func:`~repro.machines.model.as_machine`:
    a registered name, a :class:`~repro.machines.model.MachineModel`,
    or a bare :class:`~repro.sim.config.MachineConfig` (``None``: the
    default config).  The result records the machine's name only when
    the caller named a machine (a name or a model).  The search runs
    over the machine's placements × point pairs.  A single-type
    machine has one placement and runs the selected strategies.  A
    heterogeneous one is recorded once and replayed per placement (a
    phase's cache profile depends on which cluster's privates it
    meets); each placement — the declared one, then execute→execute,
    then access→access — sweeps the cross product of its two types'
    tables exhaustively, migrations charged.  The continuous strategies
    assume one table and do not apply there; ``strategy`` is still
    validated and recorded as requested.  The winner is the lowest
    (value, placement rank, pair key).
    """
    named = isinstance(machine, (str, MachineModel))
    machine = as_machine(machine)
    machine_name = machine.name if named else None
    config = machine.config
    objective = resolve_objective(objective)
    # The profile stream; it schedules under ``stream.run_scheme``.
    stream = Scheme(scheme)
    if strategy != "all" and strategy not in STRATEGIES:
        raise ValueError(
            "unknown strategy %r; expected 'all' or one of %s"
            % (strategy, ", ".join(STRATEGIES))
        )
    if strategy == "all":
        selected = STRATEGIES
    elif strategy == "phase-local":
        selected = ("phase-local",)
    else:  # always include the baseline for the comparison column
        selected = ("phase-local", strategy)
    heterogeneous = machine.heterogeneous
    placements = _placements(machine)


    collector = get_collector()
    stats = TuningStats()
    with collector.span("tuning.run", cat="tuning", args={
        "objective": objective.spec, "strategy": strategy,
        "scheme": stream.value, "scale": scale, "machine": machine.name,
    }) as span:
        spec = ExperimentSpec(
            workloads=(workload,), schemes=(stream,), scale=scale,
            machine=machine, options=options,
            cache=cache and not heterogeneous, cache_dir=cache_dir,
            interp=interp,
        )
        resolved = spec.resolve_workloads()[0]
        span.args["workload"] = resolved.name
        material_base = None
        if heterogeneous:
            store = TraceStore()
            run = profile_workload(
                resolved, scale, machine, options=options,
                schemes=(stream,), interp=interp, trace_store=store,
            )
            profiles = [run.profiles[stream.value]] + [
                machine_stream(store, stream.value, machine, placed)
                for placed in placements[1:]
            ]
        else:
            engine_result = run_experiment(spec)
            stats.engine = engine_result.stats.as_dict()
            profiles = [engine_result[resolved.name].profiles[
                stream.value]]
            if cache:
                material_base = _candidate_material(
                    key_material(resolved, spec.scale, machine,
                                 spec.options, spec.schemes),
                    resolved.name, stream, machine, scale,
                )
        evaluators = [
            _CandidateEvaluator(
                stream=profiled, run_scheme=stream.run_scheme,
                machine=machine,
                placement=placed, objective=objective,
                workload_name=resolved.name, stats=stats,
                cache=(ProfileCache(cache_dir)
                       if material_base is not None else None),
                material_base=material_base,
                prefix="%s->%s " % placed if heterogeneous else "",
            )
            for placed, profiled in zip(placements, profiles)
        ]
        declared = evaluators[0]
        phase_local = _phase_local_candidate(declared, objective)

        if heterogeneous:
            seed = None
            searches = [(evaluator, "placement:%s->%s" % evaluator.placement)
                        for evaluator in evaluators]
        else:
            seed = _phase_local_seed(declared.stream, config, objective,
                                     stats)
            searches = [(declared, name) for name in selected]
        summaries: List[StrategySummary] = []
        for evaluator, name in searches:
            with collector.span("tuning.search", cat="tuning",
                                args={"strategy": name}) as search_span:
                summary = _run_strategy(
                    name, evaluator, seed, phase_local, config, objective,
                )
                search_span.args.update(summary.as_dict())
            summaries.append(summary)

        references = _reference_candidates(declared)

        ranked = [
            (rank, candidate) for rank, evaluator in enumerate(evaluators)
            for candidate in evaluator.candidates()
        ]
        pair_candidates = [candidate for _, candidate in ranked]
        rank, best = min(ranked, key=lambda item: (
            item[1].value, item[0], item[1].pair.key,
        ))
        placement = None
        if heterogeneous:
            access, execute = placements[rank]
            placement = {"access": access, "execute": execute}
        front = pareto_front(
            [ParetoPoint(c.time_s, c.energy_j, c.label)
             for c in pair_candidates]
            + [ParetoPoint(phase_local.time_s, phase_local.energy_j,
                           phase_local.label)]
        )

        policy = TunedPolicy.from_pair(best.pair)
        installed = False
        if install and best.feasible:
            install_tuned_policy(policy)
            installed = True

        collector.counter("tuning.evaluations", stats.schedule_evals,
                          cat="tuning.stats")
        collector.counter("tuning.cache_hits", stats.cache_hits,
                          cat="tuning.stats")
        collector.counter("tuning.cache_misses", stats.cache_misses,
                          cat="tuning.stats")
        span.args.update(stats.as_dict())

    return TuningResult(
        workload=resolved.name, scheme=stream.value, objective=objective.spec,
        strategy=strategy, scale=scale, best=best, phase_local=phase_local,
        strategies=summaries, candidates=pair_candidates,
        references=references, front=front, policy=policy,
        installed=installed, stats=stats, machine=machine_name,
        placement=placement,
    )


# -- tuning internals ----------------------------------------------------------


def _placements(machine: MachineModel) -> List[tuple[str, str]]:
    """The (access, execute) placements to search, declared first.

    A heterogeneous machine adds execute→execute and access→access
    (deduplicated); a single-type machine has only its own."""
    declared = (machine.access_type, machine.execute_type)
    placements = [declared]
    if machine.heterogeneous:
        for candidate in ((machine.execute_type, machine.execute_type),
                          (machine.access_type, machine.access_type)):
            if candidate not in placements:
                placements.append(candidate)
    return placements


def _phase_local_candidate(evaluator: _CandidateEvaluator,
                           objective: Objective) -> TuningCandidate:
    """Schedule the paper's baseline on the evaluator's placement:
    per-task, per-phase grid argmin."""
    result = evaluator.run(_PhaseLocalPolicy(objective, evaluator.stats))
    value = objective.value(result)
    return TuningCandidate(
        label="phase-local", pair=None,
        time_ns=result.time_ns, energy_nj=result.energy_nj,
        value=value, feasible=value != float("inf"),
        transitions=result.transitions, steals=result.steals,
    )


def _phase_local_seed(stream, config, objective, stats) -> CandidatePair:
    """Descent seed: the phase-local argmin over the *aggregate* access
    and execute profiles (one pair summarizing the baseline)."""
    access, execute = _phase_totals(stream)
    outcomes = [
        grid_search_point(
            lambda point, profile=profile: objective.phase_value(
                profile, point, config
            ),
            config.operating_points,
        )
        for profile in (access, execute)
    ]
    stats.phase_evals += sum(o.evaluations for o in outcomes)
    return CandidatePair(
        access=outcomes[0].best_point, execute=outcomes[1].best_point
    )


def _run_strategy(name: str, evaluator: _CandidateEvaluator,
                  seed: Optional[CandidatePair],
                  phase_local: TuningCandidate,
                  config: MachineConfig,
                  objective: Objective) -> StrategySummary:
    if name == "phase-local":
        return StrategySummary(
            name=name,
            evaluations=len(config.operating_points),
            best_label=phase_local.label,
            best_value=phase_local.value,
            detail="per-phase grid (Section 6.1 baseline)",
        )
    if name == "exhaustive":
        outcome = grid_search_pair(evaluator.value, config.operating_points)
        return _summary_from_outcome(name, outcome)
    if name.startswith("placement:"):
        pairs = evaluator.grid()
        evaluator.prefetch(pairs)
        best = min(evaluator.candidates(),
                   key=lambda c: (c.value, c.pair.key))
        return StrategySummary(
            name=name, evaluations=len(pairs), best_label=best.label,
            best_value=best.value,
            detail="exhaustive over the placed types' tables",
        )
    if name == "golden":
        return _run_golden(evaluator, config, objective)
    if name == "descent":
        outcome = coordinate_descent(
            evaluator.value, config.operating_points, seed
        )
        return _summary_from_outcome(name, outcome)
    raise ValueError("unknown strategy %r" % name)


def _run_golden(evaluator: _CandidateEvaluator, config: MachineConfig,
                objective: Objective) -> StrategySummary:
    """Golden-section on the continuous V/f line per aggregate phase,
    snapped to discrete points and evaluated at schedule level."""
    access, execute = _phase_totals(evaluator.stream)
    lo = config.fmin.freq_ghz
    hi = config.fmax.freq_ghz
    outcomes = [
        golden_section(
            lambda f, profile=profile: objective.phase_value(
                profile, interpolate_point(f, config), config
            ),
            lo, hi,
        )
        for profile in (access, execute)
    ]
    evaluator.stats.phase_evals += sum(o.evaluations for o in outcomes)
    pair = CandidatePair(
        access=nearest_point(outcomes[0].best_freq_ghz,
                             config.operating_points),
        execute=nearest_point(outcomes[1].best_freq_ghz,
                              config.operating_points),
    )
    candidate = evaluator.evaluate(pair)
    return StrategySummary(
        name="golden",
        evaluations=sum(o.evaluations for o in outcomes) + 1,
        best_label=candidate.label,
        best_value=candidate.value,
        detail="continuous argmin A=%.3f/E=%.3f GHz, snapped"
        % (outcomes[0].best_freq_ghz, outcomes[1].best_freq_ghz),
    )


def _summary_from_outcome(name: str,
                          outcome: SearchOutcome) -> StrategySummary:
    return StrategySummary(
        name=name,
        evaluations=outcome.evaluations,
        best_label=pair_label(outcome.best_pair),
        best_value=outcome.best_value,
    )


def _reference_candidates(evaluator: _CandidateEvaluator) -> dict:
    """The named baseline policies as labelled pair candidates on the
    evaluator's placement."""
    references = {}
    for label, access_of, execute_of in _REFERENCE_PAIRS:
        pair = CandidatePair(access=access_of(evaluator.access_config),
                             execute=execute_of(evaluator.execute_config))
        references[label] = evaluator.evaluate(pair)
    return references
