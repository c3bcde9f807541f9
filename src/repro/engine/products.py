"""Profiling products: compute, summarize, serialize.

The engine's unit of work is one workload profiled under every scheme at
one scale on one machine (:func:`profile_workload`).  On any machine a
profile is the matrix's recording replayed through the machine's
per-type cache hierarchy.  The result,
:class:`WorkloadRun`, is consumed by every figure and table in the
evaluation layer.

Because runs must cross process boundaries (the pool) and sessions (the
on-disk cache), a run is *slim* from the start: it holds a
:class:`CompiledSummary` instead of the IR-bearing
:class:`~repro.workloads.base.CompiledWorkload`, and a
:class:`~repro.runtime.task.TaskProfile` holds only its task's name and
:class:`~repro.sim.timing.PhaseProfile` numbers, all the scheduler and
every report read.  So a fresh, a cached and a pooled run have one
shape, and this module's JSON-able payload round-trips it exactly —
bit-identical schedules, by construction and by test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..interp.trace import TraceStore
from ..machines.model import MachineLike, as_machine
from ..runtime.profiler import TaskStreamProfiler
from ..runtime.task import Scheme, StreamProfile, TaskProfile
from ..sim.cache import AccessCounts, LEVELS
from ..sim.timing import PhaseProfile
from ..transform.access_phase import AccessPhaseOptions
from ..workloads.base import CompiledWorkload, Workload

#: All three schemes, in canonical (paper) order.
ALL_SCHEMES = (Scheme.CAE, Scheme.DAE, Scheme.MANUAL)


class EngineError(RuntimeError):
    """A profiling job failed in a way the engine cannot recover from."""


@dataclass
class CompiledSummary:
    """What a run keeps of its :class:`CompiledWorkload`.

    Keeps exactly what the reports read — the Table 1 loop counts and
    the per-task generation method — behind ``CompiledWorkload``'s
    ``affine_loops()`` / ``total_loops()`` accessors.
    """

    name: str
    affine: int
    total: int
    methods: dict[str, str]  # task name -> 'affine' | 'skeleton' | 'none'

    def affine_loops(self) -> int:
        return self.affine

    def total_loops(self) -> int:
        return self.total

    @staticmethod
    def from_compiled(compiled: CompiledWorkload) -> "CompiledSummary":
        return CompiledSummary(
            name=compiled.name,
            affine=compiled.affine_loops(),
            total=compiled.total_loops(),
            methods={
                name: result.method
                for name, result in compiled.results.items()
            },
        )


@dataclass
class WorkloadRun:
    """All simulation products for one workload at one scale.

    ``compiled`` is the :class:`CompiledSummary` of the workload's
    compilation, whether the run is fresh, cached or pooled;
    ``from_cache`` records whether it came from the cache.
    """

    workload: Workload
    compiled: CompiledSummary
    profiles: dict[str, StreamProfile]
    task_count: int
    from_cache: bool = False


def profile_workload(workload: Workload, scale: int = 1,
                     machine: MachineLike = None, *,
                     options: Optional[AccessPhaseOptions] = None,
                     schemes: Sequence[Union[Scheme, str]] = ALL_SCHEMES,
                     interp: Optional[str] = None,
                     trace_store: Optional[TraceStore] = None,
                     ) -> WorkloadRun:
    """Compile and instantiate ``workload`` once, and profile it under
    every scheme.

    The one place the (compile, instantiate, profile) sequence lives;
    both the serial path and the pool workers call it.  Every scheme
    profiles the one task list on its own copy of the initial memory
    (:meth:`~repro.interp.memory.SimMemory.copy`), so all of them start
    from the state one instantiation built.

    ``interp`` picks the interpreter (``"replay"``, the default, or
    ``"reference"``).  Both produce byte-identical profiles — the
    choice is deliberately *not* part of the engine's cache key.  Every
    scheme records into one :class:`TraceStore` (``trace_store``, or a
    fresh one): under ``"replay"`` the first scheme's execute traces
    are replayed by the remaining schemes (scheme-invariant streams)
    instead of re-interpreted; access phases, which differ per scheme,
    always interpret.  The machine sweeps read a caller's store after
    the call, so it keeps everything.  A store made here keeps only
    what a later scheme reads (:meth:`TraceStore.release`): once a
    scheme is counted, its memoized private passes go, and so do its
    records, or, for the first scheme, its access traces and the
    packed events of its stripped execute traces.

    ``machine`` is the machine to profile on: a registered name, a
    :class:`~repro.machines.model.MachineModel`, or a bare
    :class:`~repro.sim.config.MachineConfig`
    (:func:`~repro.machines.model.as_machine`).  Every profile is
    counted by replaying its recording on the machine
    (:func:`repro.machines.replay.machine_stream`), so on a
    heterogeneous machine access phases meet the access cluster's
    caches and execute phases the execute cluster's.
    """
    machine = as_machine(machine)
    store = TraceStore() if trace_store is None else trace_store
    compiled = workload.compile(options)
    memory, tasks, _ = workload.instantiate(scale=scale, compiled=compiled)
    profiles: dict[str, StreamProfile] = {}
    for scheme in schemes:
        scheme = Scheme(scheme)
        profiler = TaskStreamProfiler(memory.copy(), machine, interp=interp)
        profiles[scheme.value] = profiler.profile(
            tasks, scheme, trace_store=store,
        )
        if trace_store is None:
            store.release(scheme.value)
    return WorkloadRun(
        workload=workload, compiled=CompiledSummary.from_compiled(compiled),
        profiles=profiles, task_count=len(tasks),
    )


# -- serialization -------------------------------------------------------------

#: Bump when the payload layout changes; part of every cache key.
PAYLOAD_FORMAT = 1


def _counts_to_dict(counts: AccessCounts) -> dict:
    return {
        "loads": dict(counts.loads),
        "stores": dict(counts.stores),
        "prefetches": dict(counts.prefetches),
    }


def _counts_from_dict(doc: dict) -> AccessCounts:
    counts = AccessCounts()
    for bucket in ("loads", "stores", "prefetches"):
        out = getattr(counts, bucket)
        for level in LEVELS:
            out[level] = int(doc.get(bucket, {}).get(level, 0))
    return counts


def phase_to_dict(profile: PhaseProfile) -> dict:
    return {
        "instructions": profile.instructions,
        "slots": profile.slots,
        "counts": _counts_to_dict(profile.counts),
    }


def phase_from_dict(doc: dict) -> PhaseProfile:
    return PhaseProfile(
        instructions=int(doc["instructions"]),
        slots=int(doc["slots"]),
        counts=_counts_from_dict(doc["counts"]),
    )


def run_to_payload(run: WorkloadRun) -> dict:
    """JSON-able dict carrying everything the evaluation layer reads."""
    profiles = {}
    for scheme, stream in run.profiles.items():
        profiles[str(scheme)] = [
            {
                "name": task.name,
                "execute": phase_to_dict(task.execute),
                "access": (
                    phase_to_dict(task.access)
                    if task.access is not None else None
                ),
            }
            for task in stream.tasks
        ]
    return {
        "format": PAYLOAD_FORMAT,
        "workload": run.workload.name,
        "task_count": run.task_count,
        "compiled": {
            "name": run.compiled.name,
            "affine": run.compiled.affine,
            "total": run.compiled.total,
            "methods": dict(run.compiled.methods),
        },
        "profiles": profiles,
    }


def run_from_payload(payload: dict, workload: Workload,
                     from_cache: bool = False) -> WorkloadRun:
    """Rebuild a slim :class:`WorkloadRun` from :func:`run_to_payload`."""
    if payload.get("format") != PAYLOAD_FORMAT:
        raise EngineError(
            "payload format %r does not match %d"
            % (payload.get("format"), PAYLOAD_FORMAT)
        )
    doc = payload["compiled"]
    compiled = CompiledSummary(
        name=doc["name"], affine=int(doc["affine"]), total=int(doc["total"]),
        methods=dict(doc["methods"]),
    )
    profiles: dict[str, StreamProfile] = {}
    for scheme, tasks in payload["profiles"].items():
        stream = StreamProfile(scheme=scheme)
        for task in tasks:
            stream.tasks.append(TaskProfile(
                name=task["name"],
                execute=phase_from_dict(task["execute"]),
                access=(
                    phase_from_dict(task["access"])
                    if task["access"] is not None else None
                ),
            ))
        profiles[scheme] = stream
    return WorkloadRun(
        workload=workload, compiled=compiled, profiles=profiles,
        task_count=int(payload["task_count"]), from_cache=from_cache,
    )
