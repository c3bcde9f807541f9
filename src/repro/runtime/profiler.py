"""Task-stream profiling: interpreter + cache hierarchy → phase profiles.

This is the stand-in for the paper's profiling runs on real hardware
("we run all the applications at all available frequencies and profile
the execution time of the access phases, execute phases, and the runtime
overhead", Section 3.1).  Because the timing model separates
frequency-scaled cycles from DRAM time, one simulation per execution
scheme yields the whole time-vs-frequency curve.

Execution schemes:

* ``cae``   — each task runs only its execute version (coupled);
* ``dae``   — access version first, execute immediately after, on the
  same core, sharing the cache (so the execute phase runs warm);
* ``manual`` — like ``dae`` but with the hand-written access version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Union

from ..interp.decode import decode_stats
from ..interp.fast import FastInterpreter, resolve_interp
from ..interp.interpreter import Interpreter
from ..interp.memory import SimMemory
from ..interp.trace import (
    KIND_NAMES,
    KIND_STORE,
    PhaseTrace,
    TaskTrace,
    TraceStore,
    pack_events,
)
from ..obs.events import get_collector
from ..sim.cache import AccessCounts, MachineCaches
from ..sim.config import MachineConfig
from ..sim.replay import replay_phase
from ..sim.timing import PhaseProfile, issue_slots
from .task import Scheme, TaskInstance, TaskProfile


#: Kind name -> event code, for the reference core's observer.
_KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}
#: ``bytes.translate`` table keeping only the store code: the selector
#: that picks store addresses out of a phase's event list.
_STORES_ONLY = bytes(int(code == KIND_STORE) for code in range(256))


class ProfileError(Exception):
    """Raised when a task cannot be profiled under the chosen scheme."""


@dataclass
class StreamProfile:
    """Profiles of a whole task stream under one scheme."""

    scheme: str
    tasks: list[TaskProfile] = field(default_factory=list)
    #: Accesses served by the per-core MRU same-line filter (fast-path
    #: diagnostics only; identical under both interpreters and not part
    #: of the engine's persisted payload).
    mru_shortcircuits: int = 0

    def aggregate_execute(self) -> PhaseProfile:
        total = PhaseProfile()
        for task in self.tasks:
            total = total.merged(task.execute)
        return total

    def aggregate_access(self) -> PhaseProfile:
        total = PhaseProfile()
        for task in self.tasks:
            if task.access is not None:
                total = total.merged(task.access)
        return total


class TaskStreamProfiler:
    """Simulates a task stream through one core's cache hierarchy.

    Tasks are interleaved across cores round-robin, mirroring the
    scheduler's initial distribution, so each core's cache sees the
    stream it will actually run.
    """

    def __init__(self, memory: SimMemory, config: Optional[MachineConfig] = None,
                 interp: Optional[str] = None):
        self.memory = memory
        self.config = config or MachineConfig()
        #: Which interpreter runs the phases: ``"replay"`` (the default:
        #: the fast core, plus cross-scheme trace reuse when the caller
        #: supplies a :class:`TraceStore`) or ``"reference"`` (the
        #: executable specification).  Both produce byte-identical
        #: profiles.
        self.interp = resolve_interp(interp)

    def profile(self, tasks: list[TaskInstance],
                scheme: Union[Scheme, str],
                strict: bool = False,
                trace_store: Optional[TraceStore] = None) -> StreamProfile:
        """Profile ``tasks`` under ``scheme`` (a :class:`Scheme` or its
        value).

        Under DAE/MANUAL a task whose access version is missing
        silently profiles as coupled (the runtime's fallback) and emits
        an obs warning event; with ``strict=True`` it raises
        :class:`ProfileError` instead, naming the task and scheme.

        Every interpreted phase is counted the same way: its event list
        goes through :func:`~repro.sim.replay.replay_phase` on its
        core's caches (see :meth:`_run_phase`).  ``trace_store``
        enables record/replay across a multi-scheme matrix: the store
        keeps every interpreted phase's packed event trace, and execute
        phases whose stream is already recorded by an earlier scheme
        are *replayed* through the cache model instead of
        re-interpreted.  Replay is guarded by the
        access-phase-writes-nothing invariant — the first access-phase
        store (in either the recording or the consuming scheme)
        disables reuse from that task onward, falling back to full
        interpretation — and replayed phases apply the recorded memory
        delta so later interpreted phases see the exact memory an
        interpreted run would have produced.  Without a store every
        phase is interpreted.  The store is ignored under
        ``interp="reference"``.

        With a store, every execute phase is counted from its trace's
        strip (:func:`~repro.sim.replay.strip_for`): the recording
        scheme builds it inside the phase's ``replay_phase`` call, and
        each later scheme's replay of the donor trace reuses it.
        Access phases, which no later scheme replays, are counted
        event by event.
        """
        try:
            scheme = Scheme(scheme)
        except ValueError as exc:
            raise ProfileError(str(exc)) from None
        scheme = scheme.value  # plain str below: persisted in StreamProfile
        collector = get_collector()
        caches = MachineCaches(self.config)
        result = StreamProfile(scheme=scheme)
        warned: set[str] = set()
        store = trace_store if self.interp == "replay" else None
        records: Optional[list[TaskTrace]] = None
        donor: Optional[list[TaskTrace]] = None
        #: Cleared on the first access-phase store: from that task on,
        #: memory evolution may diverge from the scheme-invariant
        #: baseline, so execute phases interpret instead of replaying.
        replay_ok = True
        if store is not None:
            records, donor = store.begin_scheme(scheme)
        for index, instance in enumerate(tasks):
            core = caches.cores[index % self.config.cores]
            access_profile = None
            access_trace = None
            if scheme in ("dae", "manual"):
                access_fn = (
                    instance.kind.access if scheme == "dae"
                    else instance.kind.manual_access
                )
                if access_fn is None:
                    if strict:
                        raise ProfileError(
                            "task %r has no %s version under scheme %r; "
                            "it would silently profile as coupled"
                            % (instance.name,
                               "access" if scheme == "dae"
                               else "manual access",
                               scheme)
                        )
                    if collector.enabled and instance.name not in warned:
                        warned.add(instance.name)
                        collector.instant(
                            "profiler.missing_access", cat="warning.profiler",
                            args={"task": instance.name, "scheme": scheme},
                        )
                else:
                    access_profile, access_trace = self._run_phase(
                        access_fn, instance.args, core,
                        phase="access", task=instance.name,
                        shareable=replay_ok,
                    )
                    if access_trace.stores:
                        replay_ok = False
                    if store is not None:
                        store.note_recorded(access_trace)
            donor_trace = (
                donor[index].execute
                if replay_ok and donor is not None and index < len(donor)
                else None
            )
            if (donor_trace is not None and donor_trace.valid
                    and donor_trace.shareable):
                execute_profile = self._replay_phase(
                    donor_trace, core,
                    phase="execute", task=instance.name,
                )
                store.note_replayed(donor_trace)
                execute_trace = donor_trace
            else:
                execute_profile, execute_trace = self._run_phase(
                    instance.kind.execute, instance.args, core,
                    phase="execute", task=instance.name,
                    shareable=replay_ok, strip=store is not None,
                )
                if store is not None:
                    store.note_recorded(execute_trace)
            if store is not None:
                records.append(TaskTrace(
                    name=instance.name,
                    access=access_trace, execute=execute_trace,
                ))
            result.tasks.append(
                TaskProfile(
                    instance=instance,
                    execute=execute_profile,
                    access=access_profile,
                )
            )
        result.mru_shortcircuits = sum(
            core.mru_hits for core in caches.cores
        )
        if collector.enabled:
            collector.counter(
                "profiler.tasks", len(result.tasks), cat="runtime.profiler",
                args={"scheme": scheme},
            )
        return result

    def _run_phase(self, func, args, core, phase: str = "",
                   task: str = "", shareable: bool = True,
                   strip: bool = False):
        """Interpret one phase, then count it on ``core``'s caches.

        Returns ``(PhaseProfile, PhaseTrace)``.  Either core fills one
        fresh flat ``[code, address, size, ...]`` list: the fast core
        extends it directly, the reference core's
        :class:`~repro.interp.interpreter.MemoryEvent` observer appends
        each event's three fields.  :func:`replay_phase` then counts
        the list — packed into one ``array('q')`` when every value fits
        a signed 64-bit word, the list itself otherwise, so an address
        beyond that range is still counted.  The store addresses in the
        list give the purity guard (``stores``) and the post-phase
        memory ``delta``.  Whether the :class:`PhaseTrace` is kept is
        the caller's choice (a :class:`TraceStore`).

        ``strip`` is set for an execute phase recorded into a store,
        whose trace later schemes and machine sweeps replay again: the
        count of a replayable trace then builds the trace's strip and
        replays that (:func:`~repro.sim.replay.strip_for`), so every
        later replay reuses it.
        """
        counts = AccessCounts()
        collector = get_collector()
        flat: list = []
        if self.interp == "reference":
            extend = flat.extend
            trace = Interpreter(
                self.memory,
                observer=lambda event: extend((
                    _KIND_CODES[event.kind], event.address, event.size,
                )),
            ).run(func, args)
        else:
            decode_before = decode_stats() if collector.enabled else None
            trace = FastInterpreter(self.memory, events=flat).run(func, args)
            if collector.enabled:
                decode_after = decode_stats()
                collector.counter(
                    "interp.decode.cache_hit",
                    decode_after["hits"] - decode_before["hits"],
                    cat="runtime.interp",
                    args={
                        "task": task, "phase": phase,
                        "misses": decode_after["misses"] - decode_before["misses"],
                    },
                )
        packed = pack_events(flat)
        kinds = bytes(flat[0::3])
        stores = kinds.count(KIND_STORE)
        delta = {}
        if stores:
            cells = self.memory._cells
            # Final value of every stored cell; the ``in cells`` filter
            # skips stores of undef, which emit an event but never write.
            delta = {
                a: cells[a]
                for a in compress(flat[1::3], kinds.translate(_STORES_ONLY))
                if a in cells
            }
        # An alloca bumps the memory allocator — replay would skip that
        # and desynchronize every later address, so the phase records
        # as non-replayable (it still interprets correctly everywhere).
        phase_trace = PhaseTrace(
            data=None if trace.by_opcode.get("alloca") else packed,
            instructions=trace.instructions,
            slots=issue_slots(trace),
            by_opcode=dict(trace.by_opcode),
            mem_events=trace.mem_events,
            dropped_prefetches=trace.dropped_prefetches,
            stores=stores,
            delta=delta,
            shareable=shareable,
        )
        mru_before = core.mru_hits
        if strip and phase_trace.valid:
            replay_phase(core, packed, counts, phase_trace)
        else:
            replay_phase(core, flat if packed is None else packed, counts)
        if collector.enabled:
            if self.interp != "reference":
                collector.counter(
                    "sim.l1.mru_shortcircuit",
                    core.mru_hits - mru_before,
                    cat="runtime.interp",
                    args={"task": task, "phase": phase},
                )
            # Post-hoc snapshots: the interpreter and caches run
            # uninstrumented, then their counters are recorded once per
            # phase.
            collector.counter(
                "phase.instructions", trace.instructions,
                cat="runtime.phase",
                args={
                    "task": task, "phase": phase,
                    "trace": trace.snapshot(),
                    "cache": counts.snapshot(),
                },
            )
        return PhaseProfile.from_run(trace, counts), phase_trace

    def _replay_phase(self, phase_trace: PhaseTrace, core,
                      phase: str = "", task: str = "") -> PhaseProfile:
        """Replay a recorded phase through ``core`` — no interpretation.

        Only execute phases replay here, so the private stage replays
        the trace's strip, which the recording scheme built.  Applies
        the trace's memory delta afterwards, so a later
        *interpreted* phase (an access phase reading index arrays this
        phase wrote) sees exactly the memory a full interpretation
        would have left.
        """
        counts = AccessCounts()
        collector = get_collector()
        mru_before = core.mru_hits
        events = replay_phase(core, phase_trace.data, counts, phase_trace)
        if phase_trace.delta:
            self.memory._cells.update(phase_trace.delta)
        if collector.enabled:
            collector.counter(
                "profiler.replayed_events", events,
                cat="runtime.profiler",
                args={
                    "task": task, "phase": phase,
                    "mru_shortcircuits": core.mru_hits - mru_before,
                },
            )
            collector.counter(
                "phase.instructions", phase_trace.instructions,
                cat="runtime.phase",
                args={
                    "task": task, "phase": phase,
                    "trace": phase_trace.snapshot(),
                    "cache": counts.snapshot(),
                },
            )
        return PhaseProfile(
            instructions=phase_trace.instructions,
            slots=phase_trace.slots,
            counts=counts,
        )

