"""The per-(phase, config) frequency-term table against the formulas it
replaced.

The reference below is the timing and power arithmetic written out from
the raw counts, in the order the model has always used, so every
comparison is exact (``==``), never approximate.
"""

import random
from dataclasses import replace

import pytest

from repro.machines import MachineModel
from repro.power import (
    optimal_edp_point,
    phase_edp_at,
    phase_energy_at,
)
from repro.sim import AccessCounts, MachineConfig, PhaseProfile
from repro.sim.cache import LEVELS
from repro.sim.config import OperatingPoint, sandybridge_full
from repro.tuning import Objective
from repro.tuning.search import interpolate_point


# -- reference: the model's formulas, straight from the counts ----------------


def ref_time(profile, point, config):
    loads = profile.counts.loads
    cycles = profile.slots / config.issue_width
    cycles += loads["l2"] * config.l2.latency_cycles * (1.0 - config.l2_hidden)
    cycles += (
        loads["llc"] * config.llc.latency_cycles * (1.0 - config.llc_hidden)
    )
    random_ns = loads["mem"] * config.mem_latency_ns / config.mlp_demand
    stream_ns = (
        loads["mem_stream"] * config.mem_latency_ns / config.mlp_hw_stream
    )
    stores = profile.counts.stores["mem"] + profile.counts.stores["mem_stream"]
    store_ns = stores * config.mem_latency_ns / config.mlp_store
    prefetches = (
        profile.counts.prefetches["mem"]
        + profile.counts.prefetches["mem_stream"]
    )
    prefetch_ns = prefetches * config.mem_latency_ns / config.mlp_prefetch
    core_ns = cycles / point.freq_ghz
    busy = max(core_ns, prefetch_ns)
    return busy + (random_ns + stream_ns) + store_ns


def ref_ipc(profile, point, config):
    time = ref_time(profile, point, config)
    if time <= 0.0:
        return 0.0
    return profile.instructions / (time * point.freq_ghz)


def ref_energy(profile, point, config):
    time = ref_time(profile, point, config)
    ipc = ref_ipc(profile, point, config)
    ceff = config.ceff_slope * ipc + config.ceff_base
    dynamic_w = ceff * point.freq_ghz * point.voltage ** 2 * 1
    static_w = (
        config.static_base_w
        + config.static_fv_w * (point.freq_ghz * point.voltage)
    ) * 1
    return (dynamic_w + static_w) * time


def ref_edp(profile, point, config):
    time = ref_time(profile, point, config)
    return (ref_energy(profile, point, config) * 1e-9) * (time * 1e-9)


def ref_optimal(profile, config):
    best, best_edp = None, float("inf")
    for point in sorted(config.operating_points, key=lambda p: p.freq_ghz):
        value = ref_edp(profile, point, config)
        if value < best_edp:
            best, best_edp = point, value
    return best


# -- inputs -------------------------------------------------------------------


def random_profile(rng):
    counts = AccessCounts()
    for bucket in (counts.loads, counts.stores, counts.prefetches):
        for level in LEVELS:
            bucket[level] = rng.choice((0, rng.randrange(1, 50),
                                        rng.randrange(50, 20_000)))
    return PhaseProfile(instructions=rng.randrange(0, 200_000),
                        slots=rng.randrange(0, 300_000), counts=counts)


def profiles():
    rng = random.Random(20140215)
    return [PhaseProfile()] + [random_profile(rng) for _ in range(40)]


def little():
    machine = MachineModel.from_name("biglittle")
    return next(t.config for t in machine.core_types if t.name == "little")


def configs():
    default = MachineConfig()
    return {
        "default": default,
        "zero-latency": replace(default, dvfs_transition_ns=0.0),
        "full": sandybridge_full(),
        "little": little(),
    }


def points(config, rng):
    """Every table point, plus interpolated points off the table."""
    lo, hi = config.fmin.freq_ghz, config.fmax.freq_ghz
    off_table = [interpolate_point(rng.uniform(lo, hi), config)
                 for _ in range(4)]
    return list(config.operating_points) + off_table


CONFIG_NAMES = sorted(configs())


# -- tests --------------------------------------------------------------------


class TestTableMatchesReference:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_time_ipc_energy_edp(self, name):
        config = configs()[name]
        rng = random.Random(name)
        edp = Objective.from_name("edp")
        for profile in profiles():
            # The scan first, so the winner's kept energy is checked too.
            winner = optimal_edp_point(profile, config)
            assert phase_energy_at(profile.terms(config), winner) is (
                profile.terms(config).edp_energy
            )
            for point in points(config, rng):
                time = ref_time(profile, point, config)
                energy = ref_energy(profile, point, config)
                assert profile.time_ns(point, config) == time
                assert profile.ipc(point, config) == ref_ipc(
                    profile, point, config
                )
                breakdown = phase_energy_at(profile.terms(config), point)
                assert breakdown.time_ns == time
                assert breakdown.energy_nj == energy
                assert phase_edp_at(profile, point, config) == ref_edp(
                    profile, point, config
                )
                assert edp.phase_value(profile, point, config) == (
                    (energy * 1e-9) * (time * 1e-9)
                )

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_optimal_point(self, name):
        config = configs()[name]
        for profile in profiles():
            expected = ref_optimal(profile, config)
            assert optimal_edp_point(profile, config) is expected
            # Asked again, the kept choice is served unchanged.
            assert optimal_edp_point(profile, config) is expected

    def test_zero_time_phase_has_zero_ipc(self):
        config = MachineConfig()
        empty = PhaseProfile()
        for point in config.operating_points:
            assert empty.time_ns(point, config) == 0.0
            assert empty.ipc(point, config) == 0.0


class TestKeyedByConfig:
    def test_two_configs_alternating_get_their_own_values(self):
        big, small = MachineConfig(), little()
        profile = profiles()[7]
        for _ in range(3):
            for config in (big, small):
                for point in config.operating_points:
                    assert profile.time_ns(point, config) == ref_time(
                        profile, point, config
                    )
                assert optimal_edp_point(profile, config) is ref_optimal(
                    profile, config
                )
                assert profile.terms(config).config is config

    def test_configs_differing_only_in_transitions_share_terms(self):
        # Headline's zero-latency copy, the stall-for-the-ramp ablation
        # and a plain copy price a DVFS switch differently (or not at
        # all) but time and power every phase alike.
        config = MachineConfig()
        profile = profiles()[3]
        terms = profile.terms(config)
        for other in (replace(config, dvfs_transition_ns=0.0),
                      replace(config, dvfs_overlap=False),
                      replace(config)):
            assert profile.terms(other) is terms
            assert profile.terms(config) is terms
            assert optimal_edp_point(profile, other) is ref_optimal(
                profile, other
            )

    def test_terms_never_read_the_transition_fields(self):
        # Terms built first under a config whose transition fields hold
        # no number still give the reference values to the real one.
        config = MachineConfig()
        poisoned = replace(config, dvfs_transition_ns=float("nan"),
                           dvfs_overlap=None)
        for profile in profiles():
            terms = profile.terms(poisoned)
            assert optimal_edp_point(profile, poisoned) is ref_optimal(
                profile, config
            )
            assert profile.terms(config) is terms
            for point in config.operating_points:
                assert profile.time_ns(point, config) == ref_time(
                    profile, point, config
                )
                assert phase_energy_at(terms, point).energy_nj == (
                    ref_energy(profile, point, config)
                )

    def test_equal_config_built_on_its_own_gets_its_own_points(self):
        # Equal by value with a table of its own: the terms are shared,
        # but each config is answered with a point of its own table.
        first, second = MachineConfig(), MachineConfig()
        assert first.operating_points is not second.operating_points
        for profile in profiles():
            terms = profile.terms(first)
            assert profile.terms(second) is terms
            for config in (first, second, first):
                winner = optimal_edp_point(profile, config)
                assert winner is ref_optimal(profile, config)
                breakdown = phase_energy_at(terms, winner)
                assert breakdown.energy_nj == ref_energy(
                    profile, winner, config
                )

    @pytest.mark.parametrize("change", [
        "issue_width", "mem_latency_ns", "mlp_demand", "mlp_prefetch",
        "mlp_hw_stream", "mlp_store", "l2_hidden", "llc.latency_cycles",
        "ceff_base", "static_fv_w", "voltage",
    ])
    def test_a_model_field_gets_terms_of_its_own(self, change):
        config = MachineConfig()
        if change == "llc.latency_cycles":
            other = replace(config, llc=replace(config.llc,
                                                latency_cycles=45))
        elif change == "voltage":
            table = list(config.operating_points)
            table[2] = replace(table[2], voltage=table[2].voltage + 0.08)
            other = replace(config, operating_points=tuple(table))
        else:
            value = getattr(config, change)
            other = replace(config, **{change: value * 2})
        assert other != config
        for profile in profiles():
            terms = profile.terms(config)
            assert optimal_edp_point(profile, config) is ref_optimal(
                profile, config
            )
            assert profile.terms(other) is not terms
            assert optimal_edp_point(profile, other) is ref_optimal(
                profile, other
            )
            for point in other.operating_points:
                assert profile.time_ns(point, other) == ref_time(
                    profile, point, other
                )
                breakdown = phase_energy_at(profile.terms(other), point)
                assert breakdown.energy_nj == ref_energy(
                    profile, point, other
                )

    def test_terms_are_computed_once_per_config(self):
        config = MachineConfig()
        profile = profiles()[5]
        assert profile.terms(config) is profile.terms(config)


class TestTieBreak:
    def _flat_config(self, operating_points):
        # Constant power and a frequency-independent time: every point
        # has exactly the same EDP.
        return MachineConfig(
            operating_points=operating_points,
            ceff_slope=0.0, ceff_base=0.0, static_fv_w=0.0,
        )

    def _memory_bound(self):
        counts = AccessCounts()
        counts.loads["mem"] = 100
        return PhaseProfile(instructions=0, slots=0, counts=counts)

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_equal_edp_picks_the_lower_frequency(self, order):
        table = (OperatingPoint(1.6, 0.85), OperatingPoint(2.4, 1.0),
                 OperatingPoint(3.4, 1.25))
        if order == "descending":
            table = tuple(reversed(table))
        config = self._flat_config(table)
        profile = self._memory_bound()
        values = {phase_edp_at(profile, p, config) for p in table}
        assert len(values) == 1 and values != {0.0}
        assert optimal_edp_point(profile, config).freq_ghz == 1.6
