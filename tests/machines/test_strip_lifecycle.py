"""When strips are built, and how many a recorded trace keeps.

A strip (:func:`repro.sim.replay.build_strip`) costs about one full
private replay, so it pays only on a trace replayed again: every
execute trace recorded into a :class:`~repro.interp.trace.TraceStore`.
These tests count the builds.  A three-scheme matrix strips each
recorded execute phase once and no access phase.  Machine variants
that keep the L1 geometry reuse the strips.  An ``l1_kb`` sweep builds
one per execute trace per new L1 size, and a trace keeps only the
strip of the last size asked for.
"""

import pytest

from repro.engine.products import ALL_SCHEMES, profile_workload
from repro.evaluation.ablation import SWEEP_PARAMS
from repro.evaluation.machines import MachineSweep
from repro.interp.trace import TraceStore
from repro.machines import homogeneous_machine
from repro.sim import MachineConfig
from repro.sim import replay as sim_replay
from repro.workloads import workload_by_name

from ..engine.tinywork import TinyWorkload


@pytest.fixture
def builds(monkeypatch):
    """Every strip build, as the (data, geometry) it was asked for."""
    calls = []
    build_strip = sim_replay.build_strip

    def counted(data, core):
        strip = build_strip(data, core)
        calls.append((data, strip.geometry))
        return strip

    monkeypatch.setattr(sim_replay, "build_strip", counted)
    return calls


def _execute_traces(store: TraceStore) -> list:
    """Each distinct execute trace of ``store``: later schemes' records
    alias the donor's when they replay it."""
    traces = {}
    for records in store.schemes.values():
        for task in records:
            traces.setdefault(id(task.execute), task.execute)
    return list(traces.values())


def _variant(param: str, value: float):
    build = SWEEP_PARAMS[param][1]
    return homogeneous_machine("%s=%g" % (param, value),
                               build(MachineConfig(), value))


def _geometry(config: MachineConfig) -> tuple:
    return config.l1.sets, config.l1.ways, config.l1.line_bytes


def test_matrix_strips_each_execute_phase_once(builds):
    store = TraceStore()
    profile_workload(workload_by_name("cg"), 1, schemes=ALL_SCHEMES,
                     trace_store=store)
    executes = _execute_traces(store)
    assert store.replayed_phases >= len(executes) > 0
    assert all(trace.valid for trace in executes)
    assert len(builds) == len(executes)
    assert {id(data) for data, _ in builds} == {
        id(trace.data) for trace in executes}
    geometry = _geometry(MachineConfig())
    assert all(trace.strip.geometry == geometry for trace in executes)
    accesses = [task.access for records in store.schemes.values()
                for task in records if task.access is not None]
    assert accesses
    assert all(trace.strip is None for trace in accesses)


def test_variants_with_the_same_l1_build_none(builds):
    sweep = MachineSweep(TinyWorkload(), 128)
    recorded = len(builds)
    assert recorded == len(_execute_traces(sweep.store))
    builds.clear()
    machines = [_variant("llc_kb", 12), _variant("llc_kb", 48),
                _variant("mem_ns", 40), _variant("mem_ns", 120),
                _variant("l2_kb", 32)]
    for _ in sweep.runs(machines):
        assert builds == []


def test_l1_sweep_builds_one_strip_per_trace_per_size(builds):
    sweep = MachineSweep(TinyWorkload(), 128)
    executes = _execute_traces(sweep.store)
    builds.clear()
    # The default L1 after l1_kb=4 is a new size again for the traces:
    # each keeps one strip, so it rebuilds.
    machines = [_variant("l1_kb", 1), _variant("l1_kb", 4),
                _variant("llc_kb", 12), _variant("llc_kb", 48)]
    last = _geometry(MachineConfig())
    for machine, _ in zip(machines, sweep.runs(machines)):
        geometry = _geometry(machine.config)
        if geometry != last:
            assert len(builds) == len(executes), machine.name
            assert {id(data) for data, _ in builds} == {
                id(trace.data) for trace in executes}
            assert {g for _, g in builds} == {geometry}
        else:
            assert builds == [], machine.name
        assert all(trace.strip.geometry == geometry for trace in executes)
        last = geometry
        builds.clear()
