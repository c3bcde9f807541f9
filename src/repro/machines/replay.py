"""Trace replay through a machine's cache hierarchy.

The recorded event streams (:mod:`repro.interp.trace`) are
machine-config-invariant, so one profiling run replays under *any*
machine — a variant of the default config (the ``ablate`` verb), a
registered single-type machine, or one whose access and execute phases
run on different core types with different private caches.

:func:`machine_stream` is the one replay path.  Each scheduling slot
pairs one set of private caches per placed core type over a single
shared LLC; a task's access phase replays through the access type's
privates and its execute phase through the execute type's, so a
decoupled run naturally shows the big.LITTLE shape — prefetches warm
the *shared* LLC but not the sibling's privates.  With a
``flush``-ing migration the destination's private caches cold-start
whenever a phase lands on the other cluster, modelling the in-kernel
switcher's power-cycled inbound cluster.

Placed types with equal configs collapse to one type once per call —
the same rule the scheduler applies — so a single-type machine (or a
degenerate two-cluster one) keeps one private hierarchy per slot and
never flushes: exactly the hierarchy a profiling run builds.
"""

from __future__ import annotations

from ..runtime.profiler import ProfileError, StreamProfile
from ..runtime.task import TaskProfile, TaskRef
from ..sim.cache import AccessCounts, Cache, CoreCaches
from ..sim.replay import replay_phase
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


def machine_stream(records: list, scheme: str,
                   machine: MachineModel,
                   placement: tuple[str, str] | None = None,
                   ) -> StreamProfile:
    """Re-simulate one recorded scheme on ``machine`` — replay only.

    ``records`` is ``TraceStore.schemes[scheme]``; ``placement``
    optionally overrides the machine's declared (access, execute) core
    types (the tuner's placement search uses this).  The result is
    exactly the :class:`StreamProfile` a full profiling run on the
    machine would produce, with zero interpretation.

    Raises :class:`~repro.runtime.profiler.ProfileError` when a
    recorded phase is non-replayable (``PhaseTrace.data is None``);
    callers fall back to re-profiling
    (``TraceStore.fully_replayable`` pre-checks this).
    """
    scheme = str(scheme)
    access_type, execute_type = machine.placement(scheme, placement)
    if access_type.config == execute_type.config:
        access_type = execute_type
    placed = ((execute_type,) if access_type is execute_type
              else (access_type, execute_type))
    flush = machine.transition.kind == "migrate" and machine.transition.flush
    shared_llc = Cache(execute_type.config.llc)
    width = machine.slots(scheme, placement)
    slots = [_Slot(placed, shared_llc) for _ in range(width)]
    result = StreamProfile(scheme=scheme)
    for index, task_trace in enumerate(records):
        slot = slots[index % width]
        profiles = []
        for phase_trace, core_type in ((task_trace.access, access_type),
                                       (task_trace.execute, execute_type)):
            if phase_trace is None:
                profiles.append(None)
                continue
            if phase_trace.data is None:
                raise ProfileError(
                    "task %r under scheme %r recorded a non-replayable "
                    "phase; machine %r needs a full re-profile instead"
                    % (task_trace.name, scheme, machine.name)
                )
            caches = slot.enter(core_type, flush)
            counts = AccessCounts()
            replay_phase(caches, phase_trace.data, counts)
            profiles.append(PhaseProfile(
                instructions=phase_trace.instructions,
                slots=phase_trace.slots,
                counts=counts,
            ))
        access_profile, execute_profile = profiles
        result.tasks.append(TaskProfile(
            instance=TaskRef(name=task_trace.name),
            execute=execute_profile,
            access=access_profile,
        ))
    result.mru_shortcircuits = sum(
        caches.mru_hits for slot in slots for caches in slot.caches.values()
    )
    return result


def machine_profiles(store, machine: MachineModel,
                     placement: tuple[str, str] | None = None,
                     ) -> dict[str, StreamProfile]:
    """Replay every recorded scheme in ``store`` on ``machine``."""
    return {
        scheme: machine_stream(records, scheme, machine, placement)
        for scheme, records in store.schemes.items()
    }
