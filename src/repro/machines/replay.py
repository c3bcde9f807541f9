"""Trace replay through a machine's cache hierarchy.

The recorded event streams (:mod:`repro.interp.trace`) are
machine-config-invariant, so one profiling run replays under *any*
machine — a variant of the default config (the ``ablate`` verb), a
registered single-type machine, or one whose access and execute phases
run on different core types with different private caches.

:func:`machine_stream` is the one replay path, and the one counting
path: every profile is its recording counted here
(:mod:`repro.runtime.profiler`).  Each scheduling slot pairs one set
of private caches per placed core type over a single shared LLC; a
task's access phase replays through the access type's privates and
its execute phase through the execute type's, so a decoupled run
naturally shows the big.LITTLE shape — prefetches warm the *shared*
LLC but not the sibling's privates.  With a
``flush``-ing migration the destination's private caches cold-start
whenever a phase lands on the other cluster, modelling the in-kernel
switcher's power-cycled inbound cluster.

Placed types with equal configs collapse to one type in
:meth:`~repro.machines.model.MachineModel.placement` — the placement
the scheduler runs too — so a single-type machine (or a degenerate
two-cluster one) keeps one private hierarchy per slot and never
flushes.

Replay runs the two stages of :mod:`repro.sim.replay` as two passes
over a scheme's records.  A count depends only on cache *geometry*,
never on latencies, DRAM time, MLP or operating points, so the private
pass (MRU filter, L1, L2 of every slot) is memoized on the
:class:`~repro.interp.trace.TraceStore`, keyed by the scheme, the slot
width, the migration flush, whether the placed types collapsed, and
each placed type's private geometry — never a machine name or
whole-config equality (which includes latencies).  Every call then
runs one LLC pass: it replays the private pass's L2-miss streams
through a fresh shared LLC.  So a variant that keeps the private
geometry — another LLC size, latency, DRAM time or MLP — replays only
the miss streams, starting with the pass the recording's own count
left.  :func:`prune_private_passes` lets a sweep drop the passes no
later machine reuses, so the memo holds only what it will serve
again.

A private pass that does run replays each execute phase through
:func:`repro.sim.replay.replay_recorded`: from its trace's strip, only
the events whose L1 outcome depends on the cache state, or event by
event when the trace is unpacked.  The recording built the strips for
its own L1, so an ``l2_kb`` variant reuses them; an ``l1_kb`` variant
rebuilds each one for its L1 once, and the trace then keeps that one.
Access phases replay every event.  Every recorded phase keeps its
events, so any recording replays on any machine.
"""

from __future__ import annotations

from ..interp.trace import TraceStore
from ..runtime.task import StreamProfile, TaskProfile
from ..sim.cache import AccessCounts, Cache, CoreCaches
from ..sim.config import MachineConfig
from ..sim.replay import replay_llc, replay_private, replay_recorded
from ..sim.timing import PhaseProfile
from .model import MachineModel


class _Slot:
    """One scheduling slot: per-type private caches over a shared LLC."""

    def __init__(self, core_types, shared_llc: Cache):
        self.caches = {
            core_type.name: CoreCaches(core_type.config, shared_llc)
            for core_type in core_types
        }
        #: Name of the type the previous phase ran on (None = cold).
        self.resident: str | None = None

    def enter(self, core_type, flush: bool) -> CoreCaches:
        """The caches for a phase on ``core_type``; applies migration
        cold-start when the slot was resident on another cluster."""
        caches = self.caches[core_type.name]
        if (flush and self.resident is not None
                and self.resident != core_type.name):
            caches.flush_private()
        self.resident = core_type.name
        return caches


def _private_geometry(config: MachineConfig) -> tuple:
    """Everything of a core type that decides its private-stage output."""
    l1, l2 = config.l1, config.l2
    return (l1.sets, l1.ways, l1.line_bytes, l2.sets, l2.ways)


def _layout(scheme: str, machine: MachineModel) -> tuple:
    """``scheme``'s (access, execute) core types on ``machine``, its
    slot width and migration flush, and the private pass's memo key
    they make."""
    access_type, execute_type = machine.placement(scheme)
    width = machine.slots(scheme)
    flush = machine.transition.kind == "migrate" and machine.transition.flush
    key = (scheme, width, flush, access_type is execute_type,
           _private_geometry(access_type.config),
           _private_geometry(execute_type.config))
    return access_type, execute_type, width, flush, key


def machine_stream(store: TraceStore, scheme: str,
                   machine: MachineModel) -> StreamProfile:
    """Re-simulate one recorded scheme of ``store`` on ``machine``.

    The result is exactly the :class:`StreamProfile` a full profiling
    run on the machine would produce, with zero interpretation.
    """
    scheme = str(scheme)
    access_type, execute_type, width, flush, key = _layout(scheme, machine)
    placed = ((execute_type,) if access_type is execute_type
              else (access_type, execute_type))
    records = store.schemes[scheme]

    def phases():
        """Every recorded phase in replay order with the caches it runs
        on: task ``i`` on slot ``i % width``, access before execute."""
        shared_llc = Cache(execute_type.config.llc)
        slots = [_Slot(placed, shared_llc) for _ in range(width)]
        for index, task_trace in enumerate(records):
            slot = slots[index % width]
            for phase_trace, core_type in (
                    (task_trace.access, access_type),
                    (task_trace.execute, execute_type)):
                if phase_trace is not None:
                    yield task_trace, phase_trace, slot.enter(core_type,
                                                              flush)

    private = store.private_stages.get(key)
    if private is None:
        private = _private_pass(phases())
        store.private_stages[key] = private
    return _llc_pass(phases(), private, records, scheme)


def prune_private_passes(store: TraceStore, upcoming) -> None:
    """Drop every private pass memoized on ``store`` that no machine in
    ``upcoming`` would reuse."""
    keep = {
        _layout(scheme, machine)[-1]
        for machine in upcoming for scheme in store.schemes
    }
    for key in set(store.private_stages) - keep:
        del store.private_stages[key]


def _private_pass(phases) -> tuple:
    """The private stage over ``phases``: per phase its L1/L2 tallies
    and L2-miss stream, plus the MRU filter's total hits.

    Execute phases replay through
    :func:`~repro.sim.replay.replay_recorded`: a packed trace from its
    strip for the core type's L1 geometry (the one the recording built,
    or a new one that replaces it when this machine's L1 differs).
    Access phases replay every event."""
    stages = []
    mru_hits = 0
    for task_trace, phase_trace, caches in phases:
        tallies = AccessCounts()
        before = caches.mru_hits
        if phase_trace is task_trace.execute:
            misses = replay_recorded(caches, phase_trace, tallies)
        else:
            misses = replay_private(caches, phase_trace.data, tallies)
        stages.append((tallies, misses))
        mru_hits += caches.mru_hits - before
    return stages, mru_hits


def _llc_pass(phases, private: tuple, records: list,
              scheme: str) -> StreamProfile:
    """The LLC stage over ``phases``, fed by the private pass's miss
    streams, assembled into the scheme's profile stream."""
    stages, mru_hits = private
    finished = []
    for (_, _, caches), (tallies, misses) in zip(phases, stages):
        # A copy: a memoized private pass serves later machines too.
        counts = tallies.copy()
        replay_llc(caches, misses, counts)
        finished.append(counts)
    finished = iter(finished)
    stream = StreamProfile(scheme=scheme, mru_shortcircuits=mru_hits)
    for task_trace in records:
        # One count per recorded phase, in the order ``phases`` walked.
        access, execute = [
            None if phase_trace is None else PhaseProfile(
                instructions=phase_trace.instructions,
                slots=phase_trace.slots,
                counts=next(finished),
            )
            for phase_trace in (task_trace.access, task_trace.execute)
        ]
        stream.tasks.append(TaskProfile(
            name=task_trace.name, execute=execute, access=access,
        ))
    return stream


def machine_profiles(store: TraceStore,
                     machine: MachineModel) -> dict[str, StreamProfile]:
    """Replay every recorded scheme in ``store`` on ``machine``."""
    return {
        scheme: machine_stream(store, scheme, machine)
        for scheme in store.schemes
    }
