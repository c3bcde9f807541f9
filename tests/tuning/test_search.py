"""Search-strategy unit tests: determinism, tie-breaks, eval counting."""

import pytest

from repro.sim.config import MachineConfig
from repro.tuning import (
    CandidatePair,
    coordinate_descent,
    golden_section,
    grid_search_pair,
    grid_search_point,
    interpolate_point,
    nearest_point,
    sorted_points,
)

POINTS = MachineConfig().operating_points


class TestGrid:
    def test_point_scan_finds_minimum(self):
        outcome = grid_search_point(
            lambda p: (p.freq_ghz - 2.4) ** 2, POINTS
        )
        assert outcome.best_point.freq_ghz == 2.4
        assert outcome.evaluations == len(POINTS)

    def test_point_ties_resolve_to_lower_frequency(self):
        outcome = grid_search_point(lambda p: 1.0, POINTS)
        assert outcome.best_point.freq_ghz == min(
            p.freq_ghz for p in POINTS
        )

    def test_point_scan_order_independent(self):
        reversed_points = tuple(reversed(sorted_points(POINTS)))
        a = grid_search_point(lambda p: 1.0, POINTS)
        b = grid_search_point(lambda p: 1.0, reversed_points)
        assert a.best_point == b.best_point

    def test_pair_scan_covers_all_pairs(self):
        seen = []
        outcome = grid_search_pair(
            lambda pair: seen.append(pair.key) or 0.0, POINTS
        )
        assert outcome.evaluations == len(POINTS) ** 2
        assert len(set(seen)) == len(POINTS) ** 2
        # Ties resolve lexicographically low.
        assert outcome.best_pair.key == (1.6, 1.6)

    def test_pair_scan_finds_joint_minimum(self):
        outcome = grid_search_pair(
            lambda pair: (pair.access.freq_ghz - 2.0) ** 2
            + (pair.execute.freq_ghz - 3.2) ** 2,
            POINTS,
        )
        assert outcome.best_pair.key == (2.0, 3.2)


class TestNearestAndInterpolate:
    def test_exact_frequency_snaps_to_itself(self):
        for point in POINTS:
            assert nearest_point(point.freq_ghz, POINTS) == point

    def test_midpoint_snaps_low(self):
        assert nearest_point(2.2, POINTS).freq_ghz == 2.0

    def test_interpolate_is_exact_at_discrete_points(self):
        config = MachineConfig()
        for point in POINTS:
            interpolated = interpolate_point(point.freq_ghz, config)
            assert interpolated.voltage == pytest.approx(
                point.voltage, abs=1e-12
            )

    def test_interpolate_between_points_is_linear(self):
        config = MachineConfig()
        ordered = sorted_points(POINTS)
        a, b = ordered[0], ordered[1]
        mid = (a.freq_ghz + b.freq_ghz) / 2.0
        interpolated = interpolate_point(mid, config)
        assert interpolated.voltage == pytest.approx(
            (a.voltage + b.voltage) / 2.0
        )

    def test_interpolate_rejects_out_of_range(self):
        config = MachineConfig()
        with pytest.raises(ValueError, match="V/f line"):
            interpolate_point(0.5, config)
        with pytest.raises(ValueError, match="V/f line"):
            interpolate_point(5.0, config)


class TestGoldenSection:
    def test_finds_interior_minimum(self):
        outcome = golden_section(lambda f: (f - 2.7) ** 2, 1.6, 3.4)
        assert outcome.best_freq_ghz == pytest.approx(2.7, abs=0.02)
        # Far fewer evaluations than a fine grid would need.
        assert outcome.evaluations < 25

    def test_probes_endpoints_for_monotone_objectives(self):
        increasing = golden_section(lambda f: f, 1.6, 3.4)
        assert increasing.best_freq_ghz == 1.6
        decreasing = golden_section(lambda f: -f, 1.6, 3.4)
        assert decreasing.best_freq_ghz == 3.4

    def test_best_value_was_actually_sampled(self):
        sampled = []
        outcome = golden_section(
            lambda f: sampled.append(f) or (f - 2.0) ** 2, 1.6, 3.4
        )
        assert outcome.best_freq_ghz in sampled

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            golden_section(lambda f: f, 3.0, 2.0)


class TestCoordinateDescent:
    def _seed(self, access_ghz=3.4, execute_ghz=3.4):
        by_freq = {p.freq_ghz: p for p in POINTS}
        return CandidatePair(by_freq[access_ghz], by_freq[execute_ghz])

    def test_separable_objective_reaches_global_minimum(self):
        outcome = coordinate_descent(
            lambda pair: (pair.access.freq_ghz - 1.6) ** 2
            + (pair.execute.freq_ghz - 2.8) ** 2,
            POINTS, self._seed(),
        )
        assert outcome.best_pair.key == (1.6, 2.8)

    def test_never_worse_than_seed(self):
        def evaluate(pair):
            return -pair.access.freq_ghz * pair.execute.freq_ghz

        seed = self._seed(1.6, 1.6)
        outcome = coordinate_descent(evaluate, POINTS, seed)
        assert outcome.best_value <= evaluate(seed)

    def test_distinct_candidates_evaluated_once(self):
        calls = []

        def evaluate(pair):
            calls.append(pair.key)
            return (pair.access.freq_ghz - 2.0) ** 2 \
                + (pair.execute.freq_ghz - 2.0) ** 2

        outcome = coordinate_descent(evaluate, POINTS, self._seed())
        assert len(calls) == len(set(calls))
        assert outcome.evaluations == len(calls)
