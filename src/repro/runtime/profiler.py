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

A profile is a recording counted by machine replay.  The profiler
interprets each phase into a :class:`~repro.interp.trace.PhaseTrace`
(or aliases the execute trace an earlier scheme recorded), appends the
task's records to a :class:`~repro.interp.trace.TraceStore`, and counts
the scheme's records with
:func:`~repro.machines.replay.machine_stream` on its machine — the one
counting path for a single-type machine and a heterogeneous one alike.
"""

from __future__ import annotations

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
    event_addresses,
    event_kinds,
    pack_events,
)
from ..machines import machine_stream
from ..machines.model import MachineLike, as_machine
from ..obs.events import get_collector
from ..sim.timing import issue_slots
from .task import Scheme, StreamProfile, TaskInstance


#: Kind name -> event code, for the reference core's observer.
_KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}
#: ``bytes.translate`` table keeping only the store code: the selector
#: that picks store addresses out of a phase's event list.
_STORES_ONLY = bytes(int(code == KIND_STORE) for code in range(256))


class ProfileError(Exception):
    """Raised when a task cannot be profiled under the chosen scheme."""


class TaskStreamProfiler:
    """Records a task stream and counts it on ``machine``, resolved by
    :func:`~repro.machines.model.as_machine`.

    Task ``i`` runs on scheduling slot ``i % width``, mirroring the
    scheduler's initial distribution, so each slot's caches see the
    stream they will actually run (:func:`~repro.machines.replay.
    machine_stream`).
    """

    def __init__(self, memory: SimMemory, machine: MachineLike = None,
                 interp: Optional[str] = None):
        self.memory = memory
        self.machine = as_machine(machine)
        #: Which interpreter runs the phases: ``"replay"`` (the default:
        #: the fast core, plus cross-scheme reuse of a donor's execute
        #: traces) or ``"reference"`` (the executable specification,
        #: which interprets every phase).  Both produce byte-identical
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

        Every phase is recorded into ``trace_store`` (a fresh store
        when the caller passes none), and the scheme's records are then
        counted by :func:`~repro.machines.replay.machine_stream` on the
        profiler's machine; each returned
        :class:`~repro.runtime.task.TaskProfile` carries its task's
        name.  A store shared across a multi-scheme
        matrix also lets the fast core skip interpretation: execute
        phases whose stream is already recorded by an earlier scheme
        alias that *donor* trace instead of re-interpreting.  Reuse is
        guarded by the access-phase-writes-nothing invariant — the
        first access-phase store (in either the recording or the
        consuming scheme) disables it from that task onward, falling
        back to full interpretation; a phase that allocates is never
        reused — and an aliased phase applies the recorded memory delta
        so later interpreted phases see the exact memory an interpreted
        run would have produced.  The reference core records too, but
        never aliases a donor.
        """
        try:
            scheme = Scheme(scheme)
        except ValueError as exc:
            raise ProfileError(str(exc)) from None
        scheme = scheme.value  # plain str below: persisted in StreamProfile
        collector = get_collector()
        warned: set[str] = set()
        store = TraceStore() if trace_store is None else trace_store
        records, donor = store.begin_scheme(scheme)
        if self.interp == "reference":
            donor = None
        #: Cleared on the first access-phase store: from that task on,
        #: memory evolution may diverge from the scheme-invariant
        #: baseline, so execute phases interpret instead of replaying.
        replay_ok = True
        for index, instance in enumerate(tasks):
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
                    access_trace = self._run_phase(
                        access_fn, instance.args,
                        phase="access", task=instance.name,
                        shareable=replay_ok,
                    )
                    if access_trace.stores:
                        replay_ok = False
                    store.note_recorded(access_trace)
            donor_trace = (
                donor[index].execute
                if replay_ok and donor is not None and index < len(donor)
                else None
            )
            if donor_trace is not None and donor_trace.shareable:
                # No interpretation: the delta is the phase's whole
                # memory effect, so a later interpreted phase (an access
                # phase reading index arrays this phase wrote) sees
                # exactly the memory a full interpretation would leave.
                execute_trace = donor_trace
                self.memory._cells.update(execute_trace.delta)
                store.note_replayed(execute_trace)
                if collector.enabled:
                    collector.counter(
                        "profiler.replayed_events", execute_trace.events,
                        cat="runtime.profiler",
                        args={"task": instance.name, "phase": "execute"},
                    )
            else:
                execute_trace = self._run_phase(
                    instance.kind.execute, instance.args,
                    phase="execute", task=instance.name,
                    shareable=replay_ok,
                )
                store.note_recorded(execute_trace)
            records.append(TaskTrace(
                name=instance.name,
                access=access_trace, execute=execute_trace,
            ))
        result = machine_stream(store, scheme, self.machine)
        if collector.enabled:
            # Post-hoc snapshots: the interpreter and caches run
            # uninstrumented, then each phase's counters are recorded
            # once, after the count.
            for task, record in zip(result.tasks, records):
                for phase in ("access", "execute"):
                    trace = getattr(record, phase)
                    if trace is not None:
                        collector.counter(
                            "phase.instructions", trace.instructions,
                            cat="runtime.phase",
                            args={
                                "task": record.name, "phase": phase,
                                "trace": trace.snapshot(),
                                "cache": getattr(task, phase).counts.snapshot(),
                            },
                        )
            collector.counter(
                "sim.l1.mru_shortcircuit", result.mru_shortcircuits,
                cat="runtime.interp", args={"scheme": scheme},
            )
            collector.counter(
                "profiler.tasks", len(result.tasks), cat="runtime.profiler",
                args={"scheme": scheme},
            )
        return result

    def _run_phase(self, func, args, phase: str = "",
                   task: str = "", shareable: bool = True) -> PhaseTrace:
        """Interpret one phase into a :class:`PhaseTrace`.

        Either core fills one fresh flat ``[code, address, ...]`` list,
        two words per event (the layout of :mod:`repro.interp.trace`):
        the fast core extends it directly, the reference core's
        :class:`~repro.interp.interpreter.MemoryEvent` observer appends
        each event's kind code and address (its ``size`` is not
        recorded: no count reads it).  The trace keeps the list packed
        into one ``array('q')`` when every value fits a signed 64-bit
        word, the list itself otherwise, so an address beyond that
        range is still counted.  The store addresses in the list give
        the purity guard (``stores``) and the post-phase memory
        ``delta``.  A phase that allocates is not ``shareable``: a
        replay amid interpreted phases would skip its allocation.
        """
        collector = get_collector()
        flat: list = []
        if self.interp == "reference":
            extend = flat.extend
            trace = Interpreter(
                self.memory,
                observer=lambda event: extend((
                    _KIND_CODES[event.kind], event.address,
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
        kinds = event_kinds(flat)
        stores = kinds.count(KIND_STORE)
        delta = {}
        if stores:
            cells = self.memory._cells
            # Final value of every stored cell; the ``in cells`` filter
            # skips stores of undef, which emit an event but never write.
            delta = {
                a: cells[a]
                for a in compress(event_addresses(flat),
                                  kinds.translate(_STORES_ONLY))
                if a in cells
            }
        return PhaseTrace(
            data=pack_events(flat),
            instructions=trace.instructions,
            slots=issue_slots(trace),
            by_opcode=dict(trace.by_opcode),
            mem_events=trace.mem_events,
            dropped_prefetches=trace.dropped_prefetches,
            stores=stores,
            delta=delta,
            shareable=shareable and not trace.by_opcode.get("alloca"),
        )
