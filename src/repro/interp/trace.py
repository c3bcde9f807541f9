"""Compact record/replay traces of task-phase memory-event streams.

Every interpreted phase leaves its dynamic memory operations in one
flat list, three scalars ``(kind code, address, size)`` per event: the
fast interpreter's generated code extends it directly, the reference
interpreter's observer appends each event's fields.  The profiler packs
that list into a single ``array('q')`` — three signed 64-bit words per
event, no per-event objects — and counts it on the cache model with
:func:`repro.sim.replay.replay_phase`.  Kept as a :class:`PhaseTrace`,
the same packed stream lets a phase interpreted *once* be pushed
through the cache model again, either under another execution scheme
or under a different machine configuration (the ``ablate`` sweeps).

What makes a recorded phase safely replayable:

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
  allocator and grows the region table; replay would skip that and
  desynchronize every later address.  Such phases record as
  non-replayable (``valid=False``) and always re-interpret.
* **Addresses must fit a signed 64-bit word** (generated programs can
  prefetch arbitrary computed addresses).  Out-of-range events poison
  the trace; the phase falls back to interpretation, which counts the
  unpacked list.
"""

from __future__ import annotations

from array import array
from typing import Optional

#: Event kind codes, index-aligned with :data:`KIND_NAMES`.
KIND_LOAD = 0
KIND_STORE = 1
KIND_PREFETCH = 2

KIND_NAMES = ("load", "store", "prefetch")

#: Signed 64-bit range accepted by the ``'q'`` array typecode.
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class PhaseTrace:
    """One recorded phase: packed events plus everything a replay needs
    to rebuild the identical :class:`~repro.sim.timing.PhaseProfile`.

    ``data`` is ``None`` when the phase is unreplayable (alloca, or an
    event outside the signed 64-bit range); the rest of the record —
    instruction counts and the memory ``delta`` — is still meaningful,
    so a non-replayable task falls back to interpretation without
    breaking the memory evolution of its neighbours.

    A replayable execute trace in a :class:`TraceStore` also keeps its
    ``strip`` (:mod:`repro.sim.replay`): the events whose L1 outcome
    depends on the cache state at phase start, for one L1 geometry.
    The recording scheme builds it, and every later replay of the trace
    on that geometry walks only those events.
    """

    __slots__ = (
        "data", "instructions", "slots", "by_opcode",
        "mem_events", "dropped_prefetches", "stores", "delta",
        "shareable", "strip",
    )

    def __init__(self, data: Optional[array], instructions: int,
                 slots: int, by_opcode: dict, mem_events: int,
                 dropped_prefetches: int, stores: int, delta: dict,
                 shareable: bool = True):
        self.data = data
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
        #: own interpretation.  False when some *earlier* access phase
        #: of the recording scheme stored (memory evolution diverged
        #: from the scheme-invariant baseline, so this stream is only
        #: valid within its own scheme — still fine for config-ablation
        #: replays, never for cross-scheme reuse).
        self.shareable = shareable
        #: The :class:`~repro.sim.replay.Strip` of ``data`` for the last
        #: L1 geometry an execute replay asked for
        #: (:func:`repro.sim.replay.strip_for`), else ``None``.  One per
        #: trace: a sweep over L1 sizes replaces it rather than adding
        #: one per size.
        self.strip = None

    @property
    def valid(self) -> bool:
        """Whether the packed event stream can stand in for a re-run."""
        return self.data is not None

    @property
    def events(self) -> int:
        return len(self.data) // 3 if self.data is not None else 0

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


def pack_events(flat: list) -> Optional[array]:
    """Pack a flat ``[code, address, size, ...]`` list into ``array('q')``.

    Returns ``None`` when any value falls outside the signed 64-bit
    range — the caller marks the phase non-replayable instead of
    crashing mid-profile.
    """
    try:
        return array("q", flat)
    except OverflowError:
        return None


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

    The first scheme profiled into the store becomes the *donor*: its
    execute traces are replayed (not re-interpreted) by every later
    scheme, because the execute stream is scheme-invariant as long as
    access phases write nothing.  Every scheme keeps a full per-task
    trace list of its own — replayed execute phases alias the donor's
    records — so config-ablation sweeps can re-simulate any scheme.
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
        #: machine_stream`): private-stage results keyed by scheme and
        #: private cache geometry.
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
        # Replays of the old records must not outlive them.
        self.private_stages.clear()
        return records, donor

    def fully_replayable(self) -> bool:
        """Whether every recorded phase of every scheme can replay.

        The gate for trace-backed ablation sweeps: one non-replayable
        phase (alloca, out-of-range address) means a machine-config
        variant must fall back to full re-interpretation.
        """
        for records in self.schemes.values():
            for task in records:
                for phase_trace in (task.access, task.execute):
                    if phase_trace is not None and phase_trace.data is None:
                        return False
        return True

    def note_recorded(self, trace: PhaseTrace) -> None:
        self.recorded_phases += 1
        self.recorded_events += trace.events

    def note_replayed(self, trace: PhaseTrace) -> None:
        self.replayed_phases += 1
        self.replayed_events += trace.events


__all__ = [
    "KIND_LOAD", "KIND_STORE", "KIND_PREFETCH", "KIND_NAMES",
    "PhaseTrace", "TaskTrace", "TraceStore", "pack_events",
]
