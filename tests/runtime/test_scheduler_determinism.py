"""Scheduler determinism: pinned tie-breaks for core selection and
steal victims, and byte-identical repeat runs."""

from repro.power import FixedPolicy
from repro.runtime import DAEScheduler, TaskProfile
from repro.sim import AccessCounts, MachineConfig, PhaseProfile


def _profile(slots):
    return PhaseProfile(
        instructions=slots, slots=slots, counts=AccessCounts(),
    )


def _task(name, slots):
    return TaskProfile(name=name, execute=_profile(slots))


def _timeline_tuples(result):
    return {
        core: [
            (s.kind, s.start_ns, s.end_ns, s.freq_ghz, s.task)
            for s in segments
        ]
        for core, segments in result.timeline.per_core().items()
    }


def _run(tasks):
    config = MachineConfig()
    return DAEScheduler(config).run(
        tasks, "cae", FixedPolicy(config.fmax), record_timeline=True,
    )


class TestTieBreaks:
    def test_one_task_per_core_lands_in_index_order(self):
        cores = MachineConfig().cores
        tasks = [_task("t%d" % i, 40_000) for i in range(cores)]
        result = _run(tasks)
        assert result.steals == 0
        per_core = result.timeline.per_core()
        for index in range(cores):
            names = {s.task for s in per_core[index] if s.task}
            assert names == {"t%d" % index}

    def test_steal_victim_is_the_lowest_indexed_fullest_queue(self):
        # Round-robin placement: core0 [big0, stealA], core1 [big1,
        # stealB], core2 [small2], core3 [small3].  Cores 2 and 3 finish
        # early and must steal from cores 0 and 1 in that order — the
        # victim tie-break picks the lowest-indexed fullest queue.
        tasks = [
            _task("big0", 400_000),
            _task("big1", 400_000),
            _task("small2", 1_000),
            _task("small3", 1_000),
            _task("stealA", 1_000),
            _task("stealB", 1_000),
        ]
        result = _run(tasks)
        assert result.steals == 2
        per_core = result.timeline.per_core()
        core2_names = {s.task for s in per_core[2] if s.task}
        core3_names = {s.task for s in per_core[3] if s.task}
        assert "stealA" in core2_names
        assert "stealB" in core3_names


class TestRepeatRuns:
    def test_balanced_run_is_byte_identical(self):
        tasks = [_task("t%d" % i, 40_000) for i in range(8)]
        first, second = _run(tasks), _run(tasks)
        assert first.summary() == second.summary()
        assert _timeline_tuples(first) == _timeline_tuples(second)

    def test_stealing_run_is_byte_identical(self):
        tasks = (
            [_task("big%d" % i, 400_000) for i in range(2)]
            + [_task("small%d" % i, 1_000) for i in range(6)]
        )
        first, second = _run(tasks), _run(tasks)
        assert first.steals == second.steals
        assert first.summary() == second.summary()
        assert _timeline_tuples(first) == _timeline_tuples(second)
