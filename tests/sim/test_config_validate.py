"""MachineConfig.validate() and the point_for() snapping contract."""

import pytest

from repro.sim.config import (
    CacheConfig,
    MachineConfig,
    MachineConfigError,
    OperatingPoint,
)


class TestPointFor:
    config = MachineConfig()

    def test_exact_point_returns_itself(self):
        for point in self.config.operating_points:
            assert self.config.point_for(point.freq_ghz) == point

    def test_nearest_snap(self):
        assert self.config.point_for(2.05).freq_ghz == 2.0
        assert self.config.point_for(2.39).freq_ghz == 2.4
        assert self.config.point_for(3.35).freq_ghz == 3.4

    def test_exact_midpoint_ties_toward_lower_frequency(self):
        # Table: 1.6, 2.0, 2.4, 2.8, 3.2, 3.4.
        assert self.config.point_for(1.8).freq_ghz == 1.6
        assert self.config.point_for(2.2).freq_ghz == 2.0
        assert self.config.point_for(2.6).freq_ghz == 2.4
        assert self.config.point_for(3.3).freq_ghz == 3.2

    def test_below_range_raises(self):
        with pytest.raises(KeyError, match="no operating point"):
            self.config.point_for(1.0)

    def test_above_range_raises(self):
        with pytest.raises(KeyError, match="no operating point"):
            self.config.point_for(3.5)

    def test_clamp_pins_out_of_range_to_the_ends(self):
        assert self.config.point_for(0.5, clamp=True) == self.config.fmin
        assert self.config.point_for(9.0, clamp=True) == self.config.fmax

    def test_clamp_still_snaps_in_range(self):
        assert self.config.point_for(2.2, clamp=True).freq_ghz == 2.0


class TestValidate:
    def test_validate_returns_self(self):
        config = MachineConfig()
        assert config.validate() is config

    def test_cores_must_be_positive(self):
        with pytest.raises(MachineConfigError, match="cores"):
            MachineConfig(cores=0).validate()

    def test_issue_width_must_be_positive(self):
        with pytest.raises(MachineConfigError, match="issue_width"):
            MachineConfig(issue_width=0).validate()

    def test_operating_points_must_not_be_empty(self):
        with pytest.raises(MachineConfigError, match="must not be empty"):
            MachineConfig(operating_points=()).validate()

    def test_operating_point_values_must_be_positive(self):
        points = (OperatingPoint(-1.0, 1.0),)
        with pytest.raises(MachineConfigError, match="positive"):
            MachineConfig(operating_points=points).validate()

    def test_frequencies_must_strictly_increase(self):
        points = (OperatingPoint(2.0, 1.0), OperatingPoint(2.0, 1.1))
        with pytest.raises(MachineConfigError, match="strictly"):
            MachineConfig(operating_points=points).validate()

    def test_voltages_must_not_decrease(self):
        points = (OperatingPoint(1.0, 1.0), OperatingPoint(2.0, 0.9))
        with pytest.raises(MachineConfigError, match="non-decreasing"):
            MachineConfig(operating_points=points).validate()

    def test_mem_latency_must_be_positive(self):
        with pytest.raises(MachineConfigError, match="mem_latency_ns"):
            MachineConfig(mem_latency_ns=0.0).validate()

    def test_dvfs_transition_must_be_non_negative(self):
        with pytest.raises(MachineConfigError, match="dvfs_transition_ns"):
            MachineConfig(dvfs_transition_ns=-1.0).validate()

    def test_cache_latency_must_be_positive(self):
        bad = CacheConfig(2 * 1024, 4, latency_cycles=0)
        with pytest.raises(MachineConfigError, match="latency_cycles"):
            MachineConfig(l1=bad).validate()

    def test_cache_geometry_must_be_positive(self):
        bad = CacheConfig(0, 8, latency_cycles=12)
        with pytest.raises(MachineConfigError, match="geometry"):
            MachineConfig(l2=bad).validate()

    def test_cache_needs_at_least_one_set(self):
        # 102 bytes cannot hold one set of 4 ways x 64-byte lines.
        bad = CacheConfig(102, 4, latency_cycles=4)
        assert bad.sets == 0
        with pytest.raises(MachineConfigError, match="at least one set"):
            MachineConfig(l1=bad).validate()

    @pytest.mark.parametrize("name", ["mlp_demand", "mlp_prefetch",
                                      "mlp_hw_stream", "mlp_store"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_mlp_must_be_positive(self, name, value):
        with pytest.raises(MachineConfigError, match=name):
            MachineConfig(**{name: value}).validate()
