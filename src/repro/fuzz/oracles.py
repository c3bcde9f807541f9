"""Differential oracles for generated programs.

Each oracle is a falsifiable statement of a contract the stack already
claims (and the hand-written test suite spot-checks); the fuzzer checks
them on *every* generated program:

``compile``
    parse → lower → optimize (with per-pass IR verification) →
    access-phase generation succeeds, and any generated access function
    itself passes the IR verifier.
``interp-equivalence``
    the reference :class:`~repro.interp.interpreter.Interpreter` and
    the pre-decoded :class:`~repro.interp.fast.FastInterpreter` produce
    the identical memory-event stream (each event's kind and address,
    every field a recording holds), final memory image, return value,
    and instruction counts.
``dae-semantics``
    the paper's core invariant — running the compiler-generated access
    phase before the execute phase leaves the final memory image
    bit-identical to running execute alone, and the access phase issues
    *no stores* (it is a pure prefetch slice).
``trace-invariance``
    the record/replay engine's load-bearing assumption — the execute
    phase emits the identical memory-event stream whether or not the
    access phase ran first — and its end-to-end consequences: profiling
    the scheme matrix (execute phases replayed from the donor scheme's
    recorded trace) serializes byte-identical to direct interpretation
    (one single-scheme profile per scheme, which has no donor to
    replay), and every recorded phase counts the same replayed
    unstripped, event by event (:func:`~repro.sim.replay.replay_phase`).
``schedule-invariants``
    profiling + scheduling under CAE and DAE with real frequency
    policies yields a timeline whose segments tile [0, time] exactly
    (``Timeline.validate``), whose per-segment energies sum to the
    schedule's total (``validate_energy``), and whose per-bucket energy
    roll-up is bit-identical to ``ScheduleResult.buckets``.
``profile-determinism``
    the engine's persisted payload for the program is byte-identical
    across two independent ``profile_workload`` runs.
``machine-invariance``
    the machine-model collapse rule — scheduling on a degenerate
    heterogeneous machine (two clusters with *behaviourally identical*
    configs, migration transition) yields summaries bit-identical to
    the single-type machine built from the same config, for every
    scheme × policy.
``engine-pool`` (batch oracle, :func:`check_engine_pool_equivalence`)
    ``run_experiment`` over a batch of programs returns byte-identical
    payloads with ``jobs=1`` and ``jobs=2``.

Any *unexpected* exception inside an oracle is itself reported as a
``crash:<oracle>`` violation — the fuzzer's whole point is that nothing
in the stack may blow up on a verifier-clean program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ..engine.products import profile_workload, run_to_payload
from ..engine.spec import ExperimentSpec
from ..frontend import compile_source
from ..interp.fast import FastInterpreter
from ..interp.interpreter import Interpreter
from ..interp.memory import SimMemory
from ..interp.trace import (
    KIND_NAMES,
    TraceStore,
    event_addresses,
    event_kinds,
)
from ..ir import Function, Module, verify_function
from ..obs.events import get_collector
from ..power.frequency import FrequencyPolicy
from ..runtime.profiler import TaskStreamProfiler
from ..runtime.scheduler import DAEScheduler
from ..runtime.task import Scheme
from ..sim.cache import AccessCounts, MachineCaches
from ..sim.config import MachineConfig
from ..sim.replay import replay_phase
from ..transform import optimize_module
from ..transform.access_phase import generate_access_phase
from ..workloads.base import MANUAL_SUFFIX
from .generator import GeneratedProgram
from .workload import FuzzWorkload, materialize_param

#: Step budget per phase run — far above any generated program's bound
#: (trip products are capped at generation time), so hitting it means
#: the termination guarantee itself broke.
FUZZ_MAX_STEPS = 5_000_000

#: Frequency policies the schedule oracle exercises.
ORACLE_POLICIES = ("minmax", "optimal")

#: Schemes the oracles run (no MANUAL: generated programs have no
#: hand-written access version).
ORACLE_SCHEMES = (Scheme.CAE, Scheme.DAE)

ORACLE_NAMES = (
    "compile",
    "interp-equivalence",
    "dae-semantics",
    "trace-invariance",
    "schedule-invariants",
    "profile-determinism",
    "machine-invariance",
    "engine-pool",
)


@dataclass(frozen=True)
class OracleViolation:
    """One oracle failure on one program."""

    oracle: str          # name from ORACLE_NAMES, or 'crash:<oracle>'
    seed: int
    detail: str
    source: str = ""

    def headline(self) -> str:
        return "[seed %d] %s: %s" % (self.seed, self.oracle, self.detail)


@dataclass
class FuzzCase:
    """A generated program after compilation and access generation."""

    program: GeneratedProgram
    module: Module
    execute: Function
    access: Optional[Function]
    method: str
    helpers: list = field(default_factory=list)


def prepare_case(program: GeneratedProgram,
                 verify_passes: bool = True) -> FuzzCase:
    """Compile ``program`` through the full pipeline, verifying hard.

    Runs the optimizer with per-pass IR verification and verifies the
    generated access function explicitly (the affine emitter's output
    is not otherwise verifier-checked) — so a pipeline bug surfaces
    here, attributed, rather than as interpreter misbehavior later.
    """
    module = compile_source(program.source, name="fuzz-%d" % program.seed)
    optimize_module(module, verify_passes=verify_passes)
    execute = module.functions[program.task_name]
    result = generate_access_phase(execute, module=module)
    if result.access is not None:
        verify_function(result.access)
    helpers = [
        f for name, f in module.functions.items()
        if name != program.task_name and not name.endswith(MANUAL_SUFFIX)
    ]
    return FuzzCase(
        program=program, module=module, execute=execute,
        access=result.access, method=result.method, helpers=helpers,
    )


# -- value / image comparison --------------------------------------------------


def _values_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
    return a == b


def _diff_cells(left: dict, right: dict) -> str:
    """First difference between two final memory images, or ''."""
    if set(left) != set(right):
        extra = sorted(set(left) ^ set(right))
        return "cell address sets differ (e.g. %#x)" % extra[0]
    for address in sorted(left):
        if not _values_equal(left[address], right[address]):
            return "cell %#x: %r vs %r" % (
                address, left[address], right[address]
            )
    return ""


def _fresh_run(case: FuzzCase, *, reference: bool = False):
    """One hermetic execute-phase run on fresh memory and arguments,
    under the fast core or (``reference``) the reference interpreter.

    Returns ``(memory, events, trace)`` where ``events`` is the
    ``(kind, address)`` stream.
    """
    memory = SimMemory()
    args = [materialize_param(memory, spec)
            for spec in case.program.params]
    if reference:
        events: list = []
        machine = Interpreter(
            memory, max_steps=FUZZ_MAX_STEPS,
            observer=lambda event: events.append(
                (event.kind, event.address)
            ),
        )
        return memory, events, machine.run(case.execute, args)
    flat: list = []
    trace = FastInterpreter(
        memory, max_steps=FUZZ_MAX_STEPS, events=flat,
    ).run(case.execute, args)
    return memory, _named_events(flat), trace


def _named_events(flat: list) -> list:
    """A flat ``[code, address, ...]`` event list as ``(kind, address)``
    tuples."""
    return [(KIND_NAMES[code], address)
            for code, address in zip(event_kinds(flat),
                                     event_addresses(flat))]


# -- per-program oracles -------------------------------------------------------


def _check_interp_equivalence(case: FuzzCase) -> list:
    seed = case.program.seed
    ref_memory, ref_events, ref_trace = _fresh_run(case, reference=True)
    fast_memory, fast_events, fast_trace = _fresh_run(case)
    problems = []
    if ref_events != fast_events:
        length = min(len(ref_events), len(fast_events))
        where = next(
            (i for i in range(length) if ref_events[i] != fast_events[i]),
            length,
        )
        problems.append(
            "event streams diverge at #%d (%d vs %d events): %r vs %r"
            % (where, len(ref_events), len(fast_events),
               ref_events[where] if where < len(ref_events) else None,
               fast_events[where] if where < len(fast_events) else None)
        )
    diff = _diff_cells(ref_memory._cells, fast_memory._cells)
    if diff:
        problems.append("final memory differs: %s" % diff)
    if not _values_equal(ref_trace.return_value, fast_trace.return_value):
        problems.append(
            "return values differ: %r vs %r"
            % (ref_trace.return_value, fast_trace.return_value)
        )
    if ref_trace.instructions != fast_trace.instructions:
        problems.append(
            "instruction counts differ: %d vs %d"
            % (ref_trace.instructions, fast_trace.instructions)
        )
    if ref_trace.by_opcode != fast_trace.by_opcode:
        problems.append("per-opcode counts differ")
    if ref_trace.dropped_prefetches != fast_trace.dropped_prefetches:
        problems.append(
            "dropped-prefetch counts differ: %d vs %d"
            % (ref_trace.dropped_prefetches, fast_trace.dropped_prefetches)
        )
    return [
        OracleViolation("interp-equivalence", seed, p, case.program.source)
        for p in problems
    ]


def _check_dae_semantics(case: FuzzCase) -> list:
    if case.access is None:
        return []
    seed = case.program.seed
    problems = []
    plain_memory, _, _ = _fresh_run(case)

    memory = SimMemory()
    args = [materialize_param(memory, spec) for spec in case.program.params]
    initial_cells = dict(memory._cells)
    flat: list = []
    FastInterpreter(memory, max_steps=FUZZ_MAX_STEPS, events=flat).run(
        case.access, args
    )
    access_stores = [address for kind, address in _named_events(flat)
                     if kind == "store"]
    if access_stores:
        problems.append(
            "access phase (method %r) issued %d store(s), first at %#x — "
            "not a pure prefetch slice"
            % (case.method, len(access_stores), access_stores[0])
        )
    diff = _diff_cells(initial_cells, memory._cells)
    if diff:
        problems.append(
            "access phase (method %r) changed the pre-execute image: %s"
            % (case.method, diff)
        )
    if not problems:
        FastInterpreter(memory, max_steps=FUZZ_MAX_STEPS).run(
            case.execute, args
        )
        diff = _diff_cells(plain_memory._cells, memory._cells)
        if diff:
            problems.append(
                "DAE final state differs from original (method %r): %s"
                % (case.method, diff)
            )
    return [
        OracleViolation("dae-semantics", seed, p, case.program.source)
        for p in problems
    ]


def _check_trace_invariance(case: FuzzCase,
                            config: MachineConfig) -> list:
    """The replay engine's invariant, checked both microscopically
    (execute-phase event streams match with and without a preceding
    access phase) and end-to-end (the replayed matrix's payload is
    byte-identical to direct interpretation, and each phase's counts to
    its recording replayed unstripped)."""
    seed = case.program.seed
    problems = []
    if case.access is not None:
        _, cold_events, _ = _fresh_run(case)
        memory = SimMemory()
        args = [materialize_param(memory, spec)
                for spec in case.program.params]
        FastInterpreter(memory, max_steps=FUZZ_MAX_STEPS).run(
            case.access, args
        )
        flat: list = []
        FastInterpreter(memory, max_steps=FUZZ_MAX_STEPS, events=flat).run(
            case.execute, args
        )
        warm_events = _named_events(flat)
        if cold_events != warm_events:
            length = min(len(cold_events), len(warm_events))
            where = next(
                (i for i in range(length)
                 if cold_events[i] != warm_events[i]),
                length,
            )
            problems.append(
                "execute event stream depends on the access phase "
                "(method %r): diverges at #%d (%d vs %d events): %r vs %r"
                % (case.method, where,
                   len(cold_events), len(warm_events),
                   cold_events[where] if where < len(cold_events) else None,
                   warm_events[where] if where < len(warm_events) else None)
            )
    workload = FuzzWorkload(case.program)
    # A single-scheme matrix has no donor scheme: every phase interprets.
    runs = [profile_workload(workload, machine=config, schemes=(scheme,))
            for scheme in ORACLE_SCHEMES]
    direct = json.dumps(run_to_payload(replace(runs[0], profiles={
        scheme: stream for run in runs
        for scheme, stream in run.profiles.items()
    })), sort_keys=True)
    store = TraceStore()
    matrix = profile_workload(
        workload, machine=config, schemes=ORACLE_SCHEMES, trace_store=store,
    )
    if direct != json.dumps(run_to_payload(matrix), sort_keys=True):
        problems.append(
            "replayed profile payload differs from direct interpretation"
        )
    # Both profiles count execute phases from strips; the reference is
    # every event through both replay stages, on the cores of one
    # hierarchy (task ``i`` on core ``i % cores``).
    for scheme, records in store.schemes.items():
        cores = MachineCaches(config).cores
        for index, (task, record) in enumerate(
                zip(matrix.profiles[scheme].tasks, records)):
            for phase in ("access", "execute"):
                trace = getattr(record, phase)
                if trace is None:
                    continue
                counts = AccessCounts()
                replay_phase(cores[index % len(cores)], trace.data, counts)
                if getattr(task, phase).counts != counts:
                    problems.append(
                        "%s %s phase of task %d counts differently "
                        "replayed unstripped" % (scheme, phase, index)
                    )
    return [
        OracleViolation("trace-invariance", seed, p, case.program.source)
        for p in problems
    ]


def _check_schedule_invariants(case: FuzzCase,
                               config: MachineConfig) -> list:
    seed = case.program.seed
    workload = FuzzWorkload(case.program)
    compiled = workload.compile()
    problems = []
    for scheme in ORACLE_SCHEMES:
        memory, tasks, _ = workload.instantiate(compiled=compiled)
        profile = TaskStreamProfiler(memory, config).profile(tasks, scheme)
        for policy_name in ORACLE_POLICIES:
            policy = FrequencyPolicy.from_name(policy_name, config)
            result = DAEScheduler(config).run(
                profile.tasks, scheme, policy, record_timeline=True
            )
            where = "scheme %s / policy %s" % (scheme.value, policy_name)
            try:
                result.timeline.validate(result.time_ns)
                result.timeline.validate_energy(result.energy_nj)
            except AssertionError as exc:
                problems.append("%s: %s" % (where, exc))
                continue
            buckets = result.buckets
            rollup = result.timeline.bucket_energy_nj()
            expect = (buckets.prefetch_nj, buckets.task_nj, buckets.osi_nj)
            if rollup != expect:
                problems.append(
                    "%s: timeline bucket energies %r != schedule buckets %r"
                    % (where, rollup, expect)
                )
    return [
        OracleViolation("schedule-invariants", seed, p, case.program.source)
        for p in problems
    ]


def _payload_text(workload: FuzzWorkload, config: MachineConfig) -> str:
    run = profile_workload(workload, machine=config, schemes=ORACLE_SCHEMES)
    return json.dumps(run_to_payload(run), sort_keys=True)


def _check_profile_determinism(case: FuzzCase,
                               config: MachineConfig) -> list:
    workload = FuzzWorkload(case.program)
    first = _payload_text(workload, config)
    second = _payload_text(workload, config)
    if first == second:
        return []
    return [OracleViolation(
        "profile-determinism", case.program.seed,
        "engine payloads differ across two identical runs",
        case.program.source,
    )]


def _check_machine_invariance(case: FuzzCase,
                              config: MachineConfig) -> list:
    """The collapse rule behind every machine-model guarantee: two
    core types with equal configs are indistinguishable, so a
    migration-based machine built from them must schedule every
    program bit-identically to the single-type machine of that config
    — no migrations, no transition charges, same summary dict."""
    from ..machines.model import CoreType, MachineModel, migrate

    seed = case.program.seed
    degenerate = MachineModel(
        name="degenerate",
        description="two behaviourally identical clusters",
        core_types=(
            CoreType(name="big", count=config.cores, config=config),
            CoreType(name="little", count=config.cores, config=config),
        ),
        transition=migrate(2000.0, flush=True),
        access_type="little",
        execute_type="big",
    ).validate()
    workload = FuzzWorkload(case.program)
    compiled = workload.compile()
    problems = []
    for scheme in ORACLE_SCHEMES:
        memory, tasks, _ = workload.instantiate(compiled=compiled)
        profile = TaskStreamProfiler(memory, config).profile(tasks, scheme)
        for policy_name in ORACLE_POLICIES:
            policy = FrequencyPolicy.from_name(policy_name, config)
            plain = DAEScheduler(config).run(
                profile.tasks, scheme, policy, record_timeline=False
            )
            hetero = DAEScheduler(machine=degenerate).run(
                profile.tasks, scheme, policy, record_timeline=False
            )
            if plain.summary() != hetero.summary():
                problems.append(
                    "scheme %s / policy %s: degenerate machine summary "
                    "differs from homogeneous: %r vs %r"
                    % (scheme.value, policy_name,
                       hetero.summary(), plain.summary())
                )
    return [
        OracleViolation("machine-invariance", seed, p, case.program.source)
        for p in problems
    ]


def run_oracles(program: GeneratedProgram,
                config: Optional[MachineConfig] = None,
                case: Optional[FuzzCase] = None) -> list:
    """Run every per-program oracle; returns all violations found.

    ``case`` lets a caller that already compiled the program (e.g. to
    record its access method) skip the second compile.
    """
    collector = get_collector()
    config = config or MachineConfig()
    try:
        case = case or prepare_case(program)
    except Exception as exc:  # any failure to compile is the finding
        collector.counter("fuzz.oracle_failures", 1, cat="fuzz")
        return [OracleViolation(
            "compile", program.seed,
            "%s: %s" % (type(exc).__name__, exc), program.source,
        )]
    violations: list = []
    checks = (
        ("interp-equivalence", lambda: _check_interp_equivalence(case)),
        ("dae-semantics", lambda: _check_dae_semantics(case)),
        ("trace-invariance",
         lambda: _check_trace_invariance(case, config)),
        ("schedule-invariants",
         lambda: _check_schedule_invariants(case, config)),
        ("profile-determinism",
         lambda: _check_profile_determinism(case, config)),
        ("machine-invariance",
         lambda: _check_machine_invariance(case, config)),
    )
    for name, check in checks:
        try:
            violations.extend(check())
        except Exception as exc:
            violations.append(OracleViolation(
                "crash:%s" % name, program.seed,
                "%s: %s" % (type(exc).__name__, exc), program.source,
            ))
    if violations:
        collector.counter("fuzz.oracle_failures", len(violations),
                          cat="fuzz")
    return violations


# -- batch oracle --------------------------------------------------------------


def check_engine_pool_equivalence(programs,
                                  config: Optional[MachineConfig] = None,
                                  ) -> list:
    """Serial ≡ pooled: the engine must return byte-identical payloads
    whether a batch of generated workloads runs with ``jobs=1`` or
    fans out over the process pool (``jobs=2``).

    Run on a sampled batch rather than per program — pool spin-up
    dominates otherwise.  (On platforms where the pool degrades to
    serial execution the comparison still holds trivially.)
    """
    from ..engine.pool import run_experiment

    programs = list(programs)
    if not programs:
        return []
    workloads = tuple(FuzzWorkload(p) for p in programs)
    payloads = {}
    for jobs in (1, 2):
        spec = ExperimentSpec(
            workloads=workloads, schemes=ORACLE_SCHEMES, machine=config,
            jobs=jobs, cache=False,
        )
        result = run_experiment(spec)
        payloads[jobs] = {
            name: json.dumps(run_to_payload(run), sort_keys=True)
            for name, run in result.runs.items()
        }
    violations = []
    for program in programs:
        name = "fuzz-%d" % program.seed
        if payloads[1].get(name) != payloads[2].get(name):
            violations.append(OracleViolation(
                "engine-pool", program.seed,
                "serial and pooled engine payloads differ",
                program.source,
            ))
    if violations:
        get_collector().counter("fuzz.oracle_failures", len(violations),
                                cat="fuzz")
    return violations
