"""The pinned collapse rule: ``sandybridge`` (and every machine whose
placed types are behaviourally identical) reproduces the plain
homogeneous paths bit-for-bit — scheduler summaries, serialized
profiling payloads, and replayed streams.  Every recording replays on
every machine, a phase that allocates or addresses beyond the signed
64-bit range included."""

import json
from dataclasses import replace

import pytest

from repro.engine.pool import run_experiment
from repro.engine.products import phase_to_dict, profile_workload, run_to_payload
from repro.engine.spec import ExperimentSpec
from repro.interp.interpreter import Interpreter
from repro.interp.trace import TraceStore
from repro.ir import (
    F64, I64, VOID, Constant, Function, IRBuilder, pointer_to,
)
from repro.machines import (
    CoreType,
    MachineModel,
    homogeneous_machine,
    ideal_machine,
    migrate,
    sandybridge_machine,
)
from repro.machines import replay as machine_replay
from repro.machines.replay import machine_stream
from repro.power.frequency import FrequencyPolicy
from repro.runtime import DAEScheduler, TaskProfile
from repro.runtime.task import TaskInstance
from repro.sim import AccessCounts, MachineConfig, PhaseProfile
from repro.sim import replay as sim_replay

from ..engine.tinywork import TinyWorkload

SCHEMES = ("cae", "dae", "manual")
POLICIES = ("fmax", "minmax", "optimal")


def _profile(slots, mem=0, pf_mem=0):
    counts = AccessCounts()
    counts.loads["mem"] = mem
    counts.prefetches["mem"] = pf_mem
    return PhaseProfile(instructions=slots, slots=slots, counts=counts)


def _tasks(n=10):
    return [
        TaskProfile(
            name="k",
            execute=_profile(slots=40_000, mem=60),
            access=_profile(slots=4_000, pf_mem=200),
        )
        for _ in range(n)
    ]


def _degenerate(config):
    return MachineModel(
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


class _WrappedTinyWorkload(TinyWorkload):
    """TinyWorkload whose execute phase runs :meth:`prologue`, then
    calls ``tiny_scale``; the compiler's access phase for
    ``tiny_scale`` stays the task's access phase."""

    def prologue(self, builder: IRBuilder, array_arg) -> None:
        raise NotImplementedError

    def build(self, memory, scale, kinds):
        tiny = kinds["tiny_scale"]
        func = Function(self.name, [pointer_to(F64), I64], ["A", "n"], VOID)
        builder = IRBuilder(func.add_block("entry"))
        self.prologue(builder, func.args[0])
        builder.call(tiny.execute, list(func.args))
        builder.ret()
        kind = replace(tiny, name=self.name, execute=func)
        return [TaskInstance(kind, instance.args)
                for instance in super().build(memory, scale, kinds)]


class AllocaWorkload(_WrappedTinyWorkload):
    name = "tiny-alloca"

    def prologue(self, builder, array_arg):
        builder.store(Constant(F64, 1.5), builder.alloca(F64, "tmp"))


class FarAddressWorkload(_WrappedTinyWorkload):
    """Prefetches a line beyond the signed 64-bit range."""

    name = "tiny-far"

    def prologue(self, builder, array_arg):
        builder.prefetch(builder.gep(array_arg, Constant(I64, 2 ** 70)))


def _phases(stream) -> list:
    return [
        (phase_to_dict(task.execute),
         None if task.access is None else phase_to_dict(task.access))
        for task in stream.tasks
    ]


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sandybridge_matches_plain_config(self, scheme, policy_name):
        config = MachineConfig()
        tasks = _tasks()
        plain = DAEScheduler(config).run(
            tasks, scheme, FrequencyPolicy.from_name(policy_name, config),
        )
        machined = DAEScheduler(machine=sandybridge_machine()).run(
            tasks, scheme, FrequencyPolicy.from_name(policy_name, config),
        )
        assert machined.summary() == plain.summary()

    def test_homogeneous_summary_has_no_machine_keys(self):
        config = MachineConfig()
        result = DAEScheduler(machine=sandybridge_machine()).run(
            _tasks(), "dae", FrequencyPolicy.from_name("optimal", config),
        )
        summary = result.summary()
        assert "machine" not in summary
        assert "migrations" not in summary
        assert "placement" not in summary

    def test_degenerate_migration_machine_collapses(self):
        config = MachineConfig()
        tasks = _tasks()
        plain = DAEScheduler(config).run(
            tasks, "dae", FrequencyPolicy.from_name("optimal", config),
        )
        degenerate = DAEScheduler(machine=_degenerate(config)).run(
            tasks, "dae", FrequencyPolicy.from_name("optimal", config),
        )
        assert degenerate.summary() == plain.summary()
        assert degenerate.migrations == 0

    def test_ideal_matches_zero_latency_config(self):
        config = MachineConfig(dvfs_transition_ns=0.0)
        tasks = _tasks()
        plain = DAEScheduler(config).run(
            tasks, "dae", FrequencyPolicy.from_name("minmax", config),
        )
        machined = DAEScheduler(machine=ideal_machine()).run(
            tasks, "dae", FrequencyPolicy.from_name("minmax", config),
        )
        assert machined.summary() == plain.summary()

    def test_placement_requires_a_machine(self):
        # ...with the placed types: the default machine has one type.
        scheduler = DAEScheduler(placement=("little", "big"))
        with pytest.raises(KeyError,
                           match=r"no core type 'big' \(types: core\)"):
            scheduler.run(_tasks(), "dae",
                          FrequencyPolicy.from_name("fmax", MachineConfig()))


class TestProfilingEquivalence:
    def test_payloads_are_byte_identical(self):
        plain = run_to_payload(profile_workload(TinyWorkload(), 1))
        machined = run_to_payload(profile_workload(
            TinyWorkload(), 1, machine=sandybridge_machine(),
        ))
        assert (json.dumps(plain, sort_keys=True)
                == json.dumps(machined, sort_keys=True))

    def test_run_experiment_machine_knob_is_transparent(self):
        base = ExperimentSpec(workloads=(TinyWorkload(),), cache=False)
        plain = run_experiment(base)
        machined = run_experiment(base.replace(machine="sandybridge"))
        assert (json.dumps(run_to_payload(plain["tiny"]), sort_keys=True)
                == json.dumps(run_to_payload(machined["tiny"]),
                              sort_keys=True))

    def test_degenerate_machine_stream_matches_single_type_stream(self):
        config = MachineConfig()
        store = TraceStore()
        profile_workload(
            TinyWorkload(), 1, config, schemes=SCHEMES,
            interp="replay", trace_store=store,
        )
        degenerate = _degenerate(config)
        for scheme in SCHEMES:
            via_machine = machine_stream(
                store, scheme, degenerate,
            )
            single = machine_stream(
                store, scheme,
                homogeneous_machine("plain", config),
            )
            assert len(via_machine.tasks) == len(single.tasks)
            for left, right in zip(via_machine.tasks, single.tasks):
                assert phase_to_dict(left.execute) == phase_to_dict(
                    right.execute)
                if left.access is None:
                    assert right.access is None
                else:
                    assert phase_to_dict(left.access) == phase_to_dict(
                        right.access)


class TestEveryRecordingReplays:
    def test_biglittle_profiles_a_workload_whose_execute_allocates(self):
        store = TraceStore()
        plain = profile_workload(AllocaWorkload(), 1)
        run = profile_workload(
            AllocaWorkload(), 1, trace_store=store,
            machine=MachineModel.from_name("biglittle"),
        )
        recorded = store.schemes["cae"][0].execute
        assert recorded.by_opcode["alloca"] == 1
        assert not recorded.shareable
        assert list(run.profiles) == list(SCHEMES)
        for scheme in SCHEMES:
            tasks = run.profiles[scheme].tasks
            assert [t.execute.instructions for t in tasks] == [
                t.execute.instructions
                for t in plain.profiles[scheme].tasks]
            assert all((t.access is not None) == (scheme != "cae")
                       for t in tasks)

    @pytest.mark.parametrize("workload_cls",
                             [AllocaWorkload, FarAddressWorkload])
    def test_degenerate_machine_replays_to_the_single_type_profile(
            self, workload_cls):
        config = MachineConfig()
        store = TraceStore()
        run = profile_workload(workload_cls(), 1, config, trace_store=store)
        for scheme in SCHEMES:
            replayed = machine_stream(store, scheme, _degenerate(config))
            assert _phases(replayed) == _phases(run.profiles[scheme])


class TestOneCountingPath:
    """A profile is its recording counted by machine replay, on a
    heterogeneous machine as on any other: each phase's private stage
    runs once, and the interpreter asked for is the one that runs."""

    def test_heterogeneous_profile_replays_each_private_stage_once(
            self, monkeypatch):
        calls = []

        def counted(original):
            def stage(*args):
                calls.append(original.__name__)
                return original(*args)
            return stage

        # Every binding of the two private stages, each counted once.
        for module, name in ((sim_replay, "replay_private"),
                             (sim_replay, "replay_stripped"),
                             (machine_replay, "replay_private")):
            monkeypatch.setattr(module, name,
                                counted(getattr(module, name)))
        store = TraceStore()
        profile_workload(TinyWorkload(), 1, trace_store=store,
                         machine=MachineModel.from_name("biglittle"))
        phases = [phase for records in store.schemes.values()
                  for task in records
                  for phase in (task.access, task.execute)
                  if phase is not None]
        assert list(store.schemes) == list(SCHEMES)
        assert len(phases) == 10   # 2 tasks: cae 2 phases, dae/manual 4
        assert len(calls) == len(phases)
        assert "replay_stripped" in calls

    def test_reference_core_runs_on_a_heterogeneous_machine(
            self, monkeypatch):
        runs = []
        run = Interpreter.run

        def spy(self, func, args, *rest):
            runs.append(func.name)
            return run(self, func, args, *rest)

        monkeypatch.setattr(Interpreter, "run", spy)
        biglittle = MachineModel.from_name("biglittle")
        reference = profile_workload(TinyWorkload(), machine=biglittle,
                                     interp="reference")
        # 2 tasks: cae interprets 2 phases, dae and manual 4 each.
        assert len(runs) == 10
        replayed = profile_workload(TinyWorkload(), machine=biglittle,
                                    interp="replay")
        assert len(runs) == 10   # the fast core is not the spied one
        assert (json.dumps(run_to_payload(reference), sort_keys=True)
                == json.dumps(run_to_payload(replayed), sort_keys=True))
