"""Differential suite: record/replay profiling is byte-identical to
direct interpretation.

The record/replay engine (``interp="replay"``, the default) interprets
each execute phase once — in the first scheme of the matrix — and
replays the recorded event trace through the cache model for every
other scheme.  These tests pin the promise that this is *unobservable*
in the results: the serialized profile payload (the exact dict the
engine cache stores and every figure reads) is equal to a full
per-scheme interpretation on every bundled workload, and every guard
that protects the invariant (access-phase stores, donor poisoning,
memory deltas, alloca) falls back to interpretation rather than
producing subtly wrong numbers.  Every recorded phase keeps its
events, so every recording replays on a machine — an allocating phase
and one beyond the signed 64-bit range included.

The direct-interpretation baseline profiles one scheme per
``profile_workload`` call: a single-scheme matrix has no donor scheme,
so the fast core interprets every phase.
"""

import json
from array import array
from dataclasses import replace

import pytest

from repro import obs
from repro.engine.pool import run_experiment
from repro.engine.products import (
    ALL_SCHEMES,
    phase_to_dict,
    profile_workload,
    run_to_payload,
)
from repro.engine.spec import ExperimentSpec
from repro.interp import KIND_NAMES, PhaseTrace, SimMemory, TraceStore
from repro.interp.trace import event_kinds
from repro.ir import F64, I64, VOID, Constant, Function, IRBuilder, pointer_to
from repro.machines import homogeneous_machine, machine_stream
from repro.runtime.profiler import TaskStreamProfiler
from repro.runtime.task import Scheme, TaskInstance, TaskKind
from repro.sim.cache import AccessCounts, MachineCaches
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.replay import replay_phase
from repro.workloads import ALL_WORKLOADS, workload_by_name
from repro.workloads.base import PaperRow, Workload, fill_floats


def _payload_text(run) -> str:
    return json.dumps(run_to_payload(run), sort_keys=True)


def _direct(workload, config=None, schemes=ALL_SCHEMES):
    """The scheme matrix with every phase interpreted: one single-scheme
    profile per scheme, merged into one run."""
    runs = [profile_workload(workload, 1, config, schemes=(scheme,))
            for scheme in schemes]
    return replace(runs[0], profiles={
        scheme: stream for run in runs
        for scheme, stream in run.profiles.items()
    })


# -- custom workloads (module level: the Workload protocol) --------------------


class ManualStoreWorkload(Workload):
    """A manual access version that *stores* (violating the pure-
    prefetch invariant) — the profiler must fall back to interpreting
    every execute phase of (and after) the offending scheme."""

    name = "manual-store"
    paper = PaperRow(1, 1, 1, 0.0, 0.0)
    elems = 24
    chunks = 3

    def source(self) -> str:
        return """
task mstore(A: f64*, n: i64) {
  var i: i64;
  var s: f64;
  s = 0.0;
  for (i = 0; i < n; i = i + 1) {
    s = s + A[i];
  }
  A[0] = s;
}

task mstore_manual_access(A: f64*, n: i64) {
  var i: i64;
  for (i = 0; i < n; i = i + 1) {
    A[i] = A[i];
    prefetch(A[i]);
  }
}
"""

    def build(self, memory, scale, kinds):
        n = self.elems * scale
        a = memory.alloc_array(8, n, "A", init=fill_floats(n))
        return [
            TaskInstance(kinds["mstore"], [a, n])
            for _ in range(self.chunks)
        ]


class DeltaDependencyWorkload(Workload):
    """Task 2's access phase chases an index array task 1's execute
    phase *wrote* — correct only if replayed phases reproduce their
    memory writes (the trace's ``delta``)."""

    name = "delta-dep"
    paper = PaperRow(2, 2, 2, 0.0, 0.0)
    elems = 32

    def source(self) -> str:
        return """
task build_index(B: i64*, n: i64) {
  var i: i64;
  for (i = 0; i < n; i = i + 1) {
    B[i] = n - 1 - i;
  }
}

task gather(A: f64*, B: i64*, n: i64) {
  var i: i64;
  var s: f64;
  s = 0.0;
  for (i = 0; i < n; i = i + 1) {
    s = s + A[B[i]];
  }
  A[0] = s;
}
"""

    def build(self, memory, scale, kinds):
        n = self.elems * scale
        a = memory.alloc_array(8, n, "A", init=fill_floats(n))
        b = memory.alloc_array(8, n, "B")
        return [
            TaskInstance(kinds["build_index"], [b, n]),
            TaskInstance(kinds["gather"], [a, b, n]),
        ]


# -- the tentpole guarantee: whole-matrix payload identity ---------------------


@pytest.mark.parametrize(
    "workload_cls", ALL_WORKLOADS, ids=lambda cls: cls().name,
)
def test_replayed_profiles_byte_identical(workload_cls):
    """Every bundled workload, full three-scheme matrix: replay and
    direct interpretation serialize to the same bytes, and replay
    actually replayed (it is not silently interpreting everything).
    Both count execute phases from strips, so every recorded phase is
    also counted unstripped, every event through ``replay_phase`` on
    the cores of one hierarchy, task ``i`` on core ``i % cores``."""
    config = MachineConfig()
    direct = _direct(workload_cls(), config)
    store = TraceStore()
    replayed = profile_workload(
        workload_cls(), 1, config, trace_store=store,
    )
    assert _payload_text(direct) == _payload_text(replayed)
    # Two non-donor schemes, every execute phase shareable.
    assert store.replayed_phases > 0
    assert store.replayed_events > 0
    for scheme, records in store.schemes.items():
        cores = MachineCaches(config).cores
        for index, (task, record) in enumerate(
                zip(replayed.profiles[scheme].tasks, records)):
            for phase in ("access", "execute"):
                trace = getattr(record, phase)
                if trace is not None:
                    counts = AccessCounts()
                    replay_phase(cores[index % len(cores)], trace.data,
                                 counts)
                    assert getattr(task, phase).counts == counts


def test_replay_is_the_default_and_autocreates_a_store():
    """``interp=None`` resolves to replay and profiles multi-scheme
    matrices via an internal TraceStore — byte-identical to direct
    interpretation, and actually replaying."""
    workload_cls = ALL_WORKLOADS[0]
    direct = _direct(workload_cls())
    with obs.collecting() as collector:
        default = profile_workload(workload_cls())
    assert _payload_text(direct) == _payload_text(default)
    assert collector.select(name="profiler.replayed_events")


def test_single_scheme_matrix_matches_fast():
    """With one scheme there is nothing to reuse: no phase replays, and
    the profile equals that scheme's column of the replayed matrix."""
    workload_cls = ALL_WORKLOADS[0]
    with obs.collecting() as collector:
        single = profile_workload(workload_cls(), schemes=(Scheme.DAE,))
    assert not collector.select(name="profiler.replayed_events")
    matrix = profile_workload(workload_cls())
    assert _payload_text(single) == _payload_text(replace(
        matrix, profiles={"dae": matrix.profiles["dae"]},
    ))


# -- invariant guards ----------------------------------------------------------


def test_manual_access_store_disables_reuse_consumer_side():
    """Donor (CAE) is clean, but MANUAL's own access phases store:
    every MANUAL execute must re-interpret — and the numbers still
    match direct interpretation exactly."""
    schemes = (Scheme.CAE, Scheme.MANUAL)
    direct = _direct(ManualStoreWorkload(), schemes=schemes)
    store = TraceStore()
    replayed = profile_workload(
        ManualStoreWorkload(), schemes=schemes, trace_store=store,
    )
    assert _payload_text(direct) == _payload_text(replayed)
    assert store.replayed_phases == 0
    assert all(
        task.access.stores > 0 for task in store.schemes["manual"]
    )


def test_manual_access_store_poisons_donor_side():
    """MANUAL records first (its access stores), so its execute traces
    are unshareable; CAE must interpret rather than replay them."""
    schemes = (Scheme.MANUAL, Scheme.CAE)
    direct = _direct(ManualStoreWorkload(), schemes=schemes)
    store = TraceStore()
    replayed = profile_workload(
        ManualStoreWorkload(), schemes=schemes, trace_store=store,
    )
    assert _payload_text(direct) == _payload_text(replayed)
    assert store.replayed_phases == 0
    assert not any(
        task.execute.shareable for task in store.schemes["manual"]
    )


def test_memory_delta_feeds_later_interpreted_phases():
    """DAE replays task 1's execute from the CAE recording; task 2's
    *interpreted* access phase then reads the index array task 1 wrote.
    Identical payloads prove the replay applied the memory delta."""
    workload = DeltaDependencyWorkload()
    direct = _direct(workload)
    store = TraceStore()
    replayed = profile_workload(workload, trace_store=store)
    assert _payload_text(direct) == _payload_text(replayed)
    assert store.replayed_phases > 0
    build = store.schemes["cae"][0]
    assert build.name == "build_index"
    assert build.execute.stores == DeltaDependencyWorkload.elems
    assert len(build.execute.delta) == DeltaDependencyWorkload.elems


# -- allocating and out-of-range phases (direct IR) ----------------------------


def _alloca_kind() -> TaskKind:
    func = Function("alloc_task", [pointer_to(F64), I64], ["A", "n"], VOID)
    b = IRBuilder(func.add_block("entry"))
    slot = b.alloca(F64, "tmp")
    b.store(Constant(F64, 1.5), slot)
    b.store(b.load(slot, "v"), func.args[0])
    b.ret()
    return TaskKind("alloc_task", execute=func)


def _overflow_kind() -> TaskKind:
    # A prefetch of A + 2**61 * 8 — beyond the signed 64-bit range the
    # packed array accepts, though the cache model simulates it fine.
    func = Function("huge_prefetch", [pointer_to(F64)], ["A"], VOID)
    b = IRBuilder(func.add_block("entry"))
    b.prefetch(b.gep(func.args[0], Constant(I64, 2 ** 61), "p"))
    b.store(Constant(F64, 2.0), func.args[0])
    b.ret()
    return TaskKind("huge_prefetch", execute=func)


def _profile_matrix(make_kind, store=None):
    """Profile two instances of ``make_kind()`` under CAE then DAE on
    fresh memory per scheme (mirroring profile_workload); without a
    ``store`` every phase is interpreted."""
    config = MachineConfig()
    result = {}
    for scheme in (Scheme.CAE, Scheme.DAE):
        memory = SimMemory()
        kind = make_kind()
        a = memory.alloc_array(8, 4, "A", init=fill_floats(4))
        tasks = [TaskInstance(kind, [a, 4]) if len(kind.execute.args) == 2
                 else TaskInstance(kind, [a]) for _ in range(2)]
        profiler = TaskStreamProfiler(memory, config)
        stream = profiler.profile(tasks, scheme, trace_store=store)
        result[scheme.value] = [
            phase_to_dict(task.execute) for task in stream.tasks
        ]
    return result


def _assert_replays_to(store, profiled):
    """Every recorded scheme of ``store`` replays on the single-type
    machine of the default config to its profiled execute counts."""
    for scheme, phases in profiled.items():
        stream = machine_stream(store, scheme, _single_type(MachineConfig()))
        assert [phase_to_dict(t.execute) for t in stream.tasks] == phases


def test_alloca_phase_records_but_is_never_shared():
    """An allocating phase keeps its packed events, but no other scheme
    replays it: a replay amid interpreted phases would skip the
    allocation.  A machine replay interprets nothing, so it does."""
    store = TraceStore()
    replayed = _profile_matrix(_alloca_kind, store)
    direct = _profile_matrix(_alloca_kind)
    assert replayed == direct
    assert store.replayed_phases == 0
    trace = store.schemes["cae"][0].execute
    assert not trace.shareable
    assert trace.by_opcode.get("alloca", 0) > 0
    assert isinstance(trace.data, array) and trace.events == 3
    _assert_replays_to(store, replayed)


def test_out_of_range_address_records_its_event_list():
    """A phase with an address beyond the signed 64-bit range keeps the
    unpacked event list; the next scheme replays it event by event."""
    store = TraceStore()
    replayed = _profile_matrix(_overflow_kind, store)
    direct = _profile_matrix(_overflow_kind)
    assert replayed == direct
    trace = store.schemes["cae"][0].execute
    assert type(trace.data) is list and trace.events == 2
    assert trace.shareable and trace.strip is None
    assert store.replayed_phases == 2
    assert store.schemes["dae"][0].execute is trace
    _assert_replays_to(store, replayed)


def test_line_beyond_int64_counts_like_per_event_access():
    """An event list that does not pack is counted unpacked: even a
    prefetch whose cache *line* is beyond the signed 64-bit range
    tallies exactly as feeding each event to ``CoreCaches.access``."""
    config = MachineConfig()
    memory = SimMemory()
    a = memory.alloc_array(8, 4, "A", init=fill_floats(4))
    func = Function("far_prefetch", [pointer_to(F64)], ["A"], VOID)
    b = IRBuilder(func.add_block("entry"))
    far = b.gep(func.args[0], Constant(I64, 2 ** 70), "p")
    b.prefetch(far)
    b.prefetch(b.gep(far, Constant(I64, 1), "q"))
    b.store(b.load(func.args[0], "v"), func.args[0])
    b.ret()
    task = TaskInstance(TaskKind("far_prefetch", execute=func), [a])
    stream = TaskStreamProfiler(memory, config).profile([task], Scheme.CAE)
    expected = AccessCounts()
    core = MachineCaches(config).cores[0]
    for address, kind in ((a + 2 ** 73, "prefetch"),
                          (a + 2 ** 73 + 8, "prefetch"),
                          (a, "load"), (a, "store")):
        core.access(address, kind, expected)
    assert stream.tasks[0].execute.counts == expected
    assert expected.prefetches["mem"] == 1 and expected.prefetches["l1"] == 1


# -- machine_stream on a single-type machine (the ablation path) --------------


def _single_type(config):
    return homogeneous_machine("variant", config)


def test_single_type_machine_stream_reproduces_the_recorded_profiles():
    """Replaying a recorded scheme under the *same* config rebuilds the
    identical profile stream, task names included."""
    config = MachineConfig()
    store = TraceStore()
    run = profile_workload(ALL_WORKLOADS[0](), 1, config, trace_store=store)
    for scheme, stream in run.profiles.items():
        rebuilt = machine_stream(
            store, scheme, _single_type(config)
        )
        assert len(rebuilt.tasks) == len(stream.tasks)
        for original, copy in zip(stream.tasks, rebuilt.tasks):
            assert original.instance.name == copy.instance.name
            assert phase_to_dict(original.execute) == phase_to_dict(
                copy.execute
            )
            if original.access is None:
                assert copy.access is None
            else:
                assert phase_to_dict(original.access) == phase_to_dict(
                    copy.access
                )


def test_single_type_machine_stream_matches_full_reprofile_under_variant():
    """The ablation guarantee: replaying recorded traces through a
    *different* cache geometry equals re-profiling from scratch under
    that geometry."""
    base = MachineConfig()
    variant = MachineConfig(llc=CacheConfig(8 * 1024, 16, latency_cycles=30))
    workload_cls = ALL_WORKLOADS[0]
    store = TraceStore()
    profile_workload(workload_cls(), 1, base, trace_store=store)
    fresh = _direct(workload_cls(), variant)
    for scheme, stream in fresh.profiles.items():
        rebuilt = machine_stream(
            store, scheme, _single_type(variant)
        )
        assert [phase_to_dict(t.execute) for t in rebuilt.tasks] == [
            phase_to_dict(t.execute) for t in stream.tasks
        ], scheme


# -- engine integration --------------------------------------------------------


def test_pooled_engine_unchanged_by_replay():
    """``jobs=2`` through the process pool with the replay default
    returns the same payloads as serial direct interpretation."""
    workload = ALL_WORKLOADS[0]()
    pooled = run_experiment(ExperimentSpec(
        workloads=(workload,), jobs=2, cache=False,
    ))
    assert _payload_text(_direct(workload)) == _payload_text(
        pooled[workload.name]
    )


def test_phase_trace_snapshot_matches_execution_trace_shape():
    trace = PhaseTrace(
        data=array("q"), instructions=10, slots=12,
        by_opcode={"fadd": 3, "load": 4}, mem_events=4,
        dropped_prefetches=1, stores=0, delta={},
    )
    snap = trace.snapshot()
    assert snap["instructions"] == 10
    assert snap["flops"] == 3
    assert snap["mem_events"] == 4
    assert snap["dropped_prefetches"] == 1
    assert trace.events == 0


@pytest.mark.parametrize("interp", ["replay", "reference"])
def test_both_cores_record_two_words_per_event(interp):
    """The layout of ``repro.interp.trace``: either core records every
    phase as one kind code and one address per memory event."""
    store = TraceStore()
    profile_workload(workload_by_name("cg"), 1, interp=interp,
                     trace_store=store)
    traces = [trace for records in store.schemes.values()
              for task in records
              for trace in (task.access, task.execute) if trace is not None]
    assert len(traces) > 1 and any(t.mem_events for t in traces)
    for trace in traces:
        assert len(trace.data) == 2 * trace.mem_events == 2 * trace.events
        assert set(event_kinds(trace.data)) <= set(range(len(KIND_NAMES)))
