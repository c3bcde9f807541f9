"""Compact record/replay traces of task-phase memory-event streams.

Every interpreted phase leaves its dynamic memory operations in one
flat list of two words per event, ``[kind code, address, ...]`` — the
*layout* this module owns: the fast interpreter's generated code
extends it directly, the reference interpreter's observer appends each
event's kind code and address.  An event's access size is not
recorded: no count reads it (the cache model works in lines, and the
event's address names its line).  :func:`event_kinds` and
:func:`event_addresses` split a flat list into its two columns; the two
replay loops of :mod:`repro.sim.replay` walk it a pair at a time.  The
profiler packs that list into a single ``array('q')`` — two signed
64-bit words per event, no per-event objects — and keeps it as a
:class:`PhaseTrace` in a :class:`TraceStore`.  A profile is the
store's records of one scheme counted on a machine by
:func:`repro.machines.replay.machine_stream`, so a phase interpreted
*once* can be counted again, under another execution scheme or on a
different machine (the ``machines`` and ``ablate`` sweeps).

A caller's store keeps every recorded phase's events, so its recording
replays on any machine.  A store that a profiling call makes for itself
keeps only what a later scheme of the call reads
(:meth:`TraceStore.release`).  A phase with a value beyond the signed
64-bit range (generated programs can prefetch arbitrary computed
addresses) keeps the flat list itself, which replays event by event.

What lets another scheme replay a recorded phase in place of its own
interpretation (``PhaseTrace.shareable``):

* **The event stream must be a pure function of pre-phase memory.**
  Within one scheme that is trivially true; *across* schemes it is the
  paper's access-phase-writes-nothing invariant (access phases are pure
  prefetch slices, so the execute phase sees identical memory under
  CAE, DAE and MANUAL — the ``dae-semantics`` and ``trace-invariance``
  fuzz oracles pin exactly this).  The profiler watches interpreted
  access phases for stores and disables cross-scheme reuse from the
  first violation onward.
* **Replay skips the interpreter, so it must reproduce the phase's
  memory writes by other means.**  Each trace carries ``delta`` — the
  final value of every cell the phase stored — which the replayer
  applies to memory so later *interpreted* phases (e.g. an access
  phase chasing an index array the previous execute phase wrote) read
  exactly what they would have.  Loads and prefetches never mutate
  memory, so the delta is the phase's entire memory effect.
* **No allocations.**  A phase that executes ``alloca`` bumps the
  allocator and grows the region table; a replay amid interpreted
  phases would skip that and desynchronize every later address, so
  such a phase is never shared.  A machine replay interprets nothing,
  so it replays that phase like any other.
"""

from __future__ import annotations

from array import array
from typing import Optional, Union

#: Event kind codes, index-aligned with :data:`KIND_NAMES`.
KIND_LOAD = 0
KIND_STORE = 1
KIND_PREFETCH = 2

KIND_NAMES = ("load", "store", "prefetch")


class PhaseTrace:
    """One recorded phase: its events plus everything a replay needs
    to rebuild the identical :class:`~repro.sim.timing.PhaseProfile`.

    ``data`` is the packed ``array('q')`` of events, or the flat event
    list when a value does not fit a signed 64-bit word
    (:func:`pack_events`).  A store that a profiling call makes for
    itself frees what no later count reads: a packed execute trace it
    keeps loses its ``data`` once counted, and replays from its strip
    from then on (:meth:`TraceStore.release`).  ``events`` is the
    event count, fixed when the trace is recorded.

    A packed execute trace in a :class:`TraceStore` also keeps its
    ``strip`` (:mod:`repro.sim.replay`): the events whose L1 outcome
    depends on the cache state at phase start, for one L1 geometry.
    The recording scheme builds it, and every later replay of the trace
    on that geometry walks only those events.
    """

    __slots__ = (
        "data", "events", "instructions", "slots", "by_opcode",
        "mem_events", "dropped_prefetches", "stores", "delta",
        "shareable", "strip",
    )

    def __init__(self, data: Union[array, list], instructions: int,
                 slots: int, by_opcode: dict, mem_events: int,
                 dropped_prefetches: int, stores: int, delta: dict,
                 shareable: bool = True):
        self.data = data
        self.events = len(data) // 2
        self.instructions = instructions
        self.slots = slots
        self.by_opcode = by_opcode
        self.mem_events = mem_events
        self.dropped_prefetches = dropped_prefetches
        #: Dynamic store-event count (the access-phase purity guard).
        self.stores = stores
        #: address -> final value for every cell this phase stored.
        self.delta = delta
        #: Whether another scheme may replay this trace in place of its
        #: own interpretation.  False when the phase allocated, or when
        #: some *earlier* access phase of the recording scheme stored
        #: (memory evolution diverged from the scheme-invariant
        #: baseline, so this stream is only valid within its own scheme
        #: — still fine for machine replays, never for cross-scheme
        #: reuse).
        self.shareable = shareable
        #: The :class:`~repro.sim.replay.Strip` of ``data`` for the last
        #: L1 geometry an execute replay asked for
        #: (:func:`repro.sim.replay.strip_for`), else ``None``.  One per
        #: trace: a sweep over L1 sizes replaces it rather than adding
        #: one per size.
        self.strip = None

    def snapshot(self) -> dict:
        """Mirror of :meth:`ExecutionTrace.snapshot` for obs counters,
        so a replayed phase logs the same ``phase.instructions`` args
        an interpreted one would."""
        flops = sum(
            self.by_opcode.get(op, 0)
            for op in ("fadd", "fsub", "fmul", "fdiv")
        )
        return {
            "instructions": self.instructions,
            "mem_events": self.mem_events,
            "dropped_prefetches": self.dropped_prefetches,
            "flops": flops,
            "by_opcode": dict(self.by_opcode),
        }


def event_kinds(flat) -> bytes:
    """Every event's kind code, in order, from a flat event list."""
    return bytes(flat[0::2])


def event_addresses(flat) -> list:
    """Every event's address, in order, from a flat event list."""
    return flat[1::2]


def pack_events(flat: list) -> Union[array, list]:
    """Pack a flat ``[code, address, ...]`` list into ``array('q')``.

    Returns ``flat`` itself when any value falls outside the signed
    64-bit range: such a phase is counted, and replays, event by event.
    """
    try:
        return array("q", flat)
    except OverflowError:
        return flat


class TaskTrace:
    """The recorded phases of one task under one scheme.

    ``name`` is the task-instance name, kept so a pure replay (the
    ablation sweeps) can rebuild a schedulable profile stream without
    the original :class:`~repro.runtime.task.TaskInstance` objects.
    """

    __slots__ = ("name", "access", "execute")

    def __init__(self, name: str = "",
                 access: Optional[PhaseTrace] = None,
                 execute: Optional[PhaseTrace] = None):
        self.name = name
        self.access = access
        self.execute = execute


class TraceStore:
    """Recorded traces for one profiling matrix, keyed by scheme.

    Every profile records into one (the caller's, or its own).  The
    first scheme profiled into the store becomes the *donor*: its
    execute traces are replayed (not re-interpreted) by every later
    scheme on the fast core, because the execute stream is
    scheme-invariant as long as access phases write nothing.  Every
    scheme keeps a full per-task trace list of its own — replayed
    execute phases alias the donor's records — so config-ablation
    sweeps can re-simulate any scheme from a caller's store.
    """

    def __init__(self) -> None:
        self.schemes: dict[str, list[TaskTrace]] = {}
        #: Replay statistics across the whole matrix (diagnostics and
        #: the ``bench_profile`` events-replayed column).
        self.replayed_events = 0
        self.replayed_phases = 0
        self.recorded_events = 0
        self.recorded_phases = 0
        #: The machine-replay memo (:func:`repro.machines.replay.
        #: machine_stream`): private-stage results keyed by scheme
        #: (first) and private cache geometry.
        self.private_stages: dict = {}

    def begin_scheme(self, scheme: str) -> tuple:
        """Open (or reset) the record list for ``scheme``.

        Returns ``(records, donor)`` where ``donor`` is the first
        *other* scheme's task list, or ``None`` when this scheme is the
        first recorded (and therefore interprets everything).
        """
        donor = None
        for name, records in self.schemes.items():
            if name != scheme:
                donor = records
                break
        records: list[TaskTrace] = []
        self.schemes[scheme] = records
        # Replays of the old records must not outlive them; every other
        # scheme's passes still match its records.
        for key in [key for key in self.private_stages if key[0] == scheme]:
            del self.private_stages[key]
        return records, donor

    def release(self, scheme: str) -> None:
        """Free what no later scheme reads, once ``scheme`` is counted.

        For a store that :func:`~repro.engine.products.profile_workload`
        makes for itself; a caller's store keeps everything for later
        machines.  Later schemes read only the donor's execute traces:
        they alias them, and count them on the machine's execute type,
        from the strips the donor's count built for that type's L1.  So
        a non-donor scheme's records leave the store, the donor's
        access traces go, and each donor execute trace with a strip
        drops its packed ``data``; an unpacked trace has no strip and
        keeps its list.  The memoized private passes go too.
        """
        self.private_stages.clear()
        records = self.schemes[scheme]
        if records is not next(iter(self.schemes.values())):
            del self.schemes[scheme]
            return
        for record in records:
            record.access = None
            if record.execute.strip is not None:
                record.execute.data = None

    def note_recorded(self, trace: PhaseTrace) -> None:
        self.recorded_phases += 1
        self.recorded_events += trace.events

    def note_replayed(self, trace: PhaseTrace) -> None:
        self.replayed_phases += 1
        self.replayed_events += trace.events


__all__ = [
    "KIND_LOAD", "KIND_STORE", "KIND_PREFETCH", "KIND_NAMES",
    "PhaseTrace", "TaskTrace", "TraceStore", "event_addresses",
    "event_kinds", "pack_events",
]
