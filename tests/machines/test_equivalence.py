"""The pinned collapse rule: ``sandybridge`` (and every machine whose
placed types are behaviourally identical) reproduces the plain
homogeneous paths bit-for-bit — scheduler summaries, serialized
profiling payloads, and replayed streams."""

import json

import pytest

from repro.engine.pool import run_experiment
from repro.engine.products import phase_to_dict, profile_workload, run_to_payload
from repro.engine.spec import ExperimentSpec
from repro.interp.trace import TraceStore
from repro.machines import (
    CoreType,
    MachineModel,
    homogeneous_machine,
    ideal_machine,
    migrate,
    sandybridge_machine,
)
from repro.machines.replay import machine_stream
from repro.power.frequency import FrequencyPolicy
from repro.runtime import DAEScheduler, TaskProfile
from repro.runtime.task import TaskInstance, TaskKind
from repro.sim import AccessCounts, MachineConfig, PhaseProfile

from ..engine.tinywork import TinyWorkload

SCHEMES = ("cae", "dae", "manual")
POLICIES = ("fmax", "minmax", "optimal")


def _profile(slots, mem=0, pf_mem=0):
    counts = AccessCounts()
    counts.loads["mem"] = mem
    counts.prefetches["mem"] = pf_mem
    return PhaseProfile(instructions=slots, slots=slots, counts=counts)


def _tasks(n=10):
    kind = TaskKind(name="k", execute=None)
    return [
        TaskProfile(
            instance=TaskInstance(kind, []),
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

    def test_config_and_machine_together_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            DAEScheduler(MachineConfig(), machine=sandybridge_machine())

    def test_placement_requires_a_machine(self):
        with pytest.raises(ValueError, match="requires a machine"):
            DAEScheduler(placement=("little", "big"))


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
        assert store.fully_replayable()
        degenerate = _degenerate(config)
        for scheme in SCHEMES:
            via_machine = machine_stream(
                store.schemes[scheme], scheme, degenerate,
            )
            single = machine_stream(
                store.schemes[scheme], scheme,
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
