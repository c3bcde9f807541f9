"""The issue's acceptance criteria, verified on every bundled workload.

1. Grid search with the ``edp`` objective reproduces
   :func:`optimal_edp_point`'s choice bit-for-bit on every phase of
   every bundled workload.
2. Coordinate descent's schedule-level EDP is never worse than the
   phase-local optimum's schedule EDP, and strictly better on at least
   one workload.
"""

from repro.power.frequency import optimal_edp_point, phase_edp_at
from repro.tuning import EDPObjective, grid_search_point, tune_workload


class TestGridReproducesPhaseLocalOptimum:
    def test_every_phase_of_every_workload(self, dae_runs):
        objective = EDPObjective()
        config = dae_runs.spec.machine.config
        phases_checked = 0
        for name in dae_runs:
            for task in dae_runs[name].profiles["dae"].tasks:
                profiles = [task.execute]
                if task.access is not None:
                    profiles.append(task.access)
                for profile in profiles:
                    outcome = grid_search_point(
                        lambda point: objective.phase_value(
                            profile, point, config
                        ),
                        config.operating_points,
                    )
                    expected = optimal_edp_point(profile, config)
                    assert outcome.best_point == expected, (
                        "grid/edp diverged from optimal_edp_point on a "
                        "%s phase: %r != %r"
                        % (name, outcome.best_point, expected)
                    )
                    assert outcome.best_value == phase_edp_at(
                        profile, expected, config
                    )
                    phases_checked += 1
        assert phases_checked > 100  # all workloads actually contributed


class TestDescentBeatsPhaseLocal:
    def test_schedule_level_edp_never_worse_strictly_better_somewhere(
            self, dae_runs, tuning_cache_dir):
        strictly_better = []
        for name in dae_runs:
            result = tune_workload(
                name, objective="edp", strategy="descent",
                cache_dir=tuning_cache_dir, install=False,
            )
            # Profiles came from the session cache, not a re-run.
            assert result.stats.engine["jobs_completed"] == 0
            assert result.best.value <= result.phase_local.value, (
                "tuned pair lost to the phase-local baseline on %s: "
                "%g > %g"
                % (name, result.best.value, result.phase_local.value)
            )
            if result.best.value < result.phase_local.value:
                strictly_better.append(name)
        assert strictly_better, (
            "schedule-level tuning should strictly beat the phase-local "
            "baseline on at least one workload"
        )
