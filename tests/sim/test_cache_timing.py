"""Cache hierarchy and core timing model tests."""

import pytest

from repro.sim import (
    AccessCounts,
    Cache,
    CacheConfig,
    MachineCaches,
    MachineConfig,
    PhaseProfile,
)


def fresh_machine():
    return MachineConfig(), MachineCaches(MachineConfig())


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        config, machine = fresh_machine()
        core = machine.cores[0]
        counts = AccessCounts()
        assert core.access(0x10000, "load", counts) in ("mem", "mem_stream")
        assert core.access(0x10000, "load", counts) == "l1"
        assert counts.loads["l1"] == 1

    def test_lru_eviction(self):
        cache = Cache(CacheConfig(2 * 64, 2, line_bytes=64))  # 1 set, 2 ways
        cache.fill(1)
        cache.fill(2)
        assert cache.lookup(1)          # touch 1: now 2 is LRU
        cache.fill(3)                   # evicts 2
        assert cache.lookup(1)
        assert not cache.lookup(2)
        assert cache.lookup(3)

    def test_sets_partition_lines(self):
        cache = Cache(CacheConfig(4 * 64, 1, line_bytes=64))  # 4 sets, direct
        cache.fill(0)
        cache.fill(4)  # same set as 0 (4 % 4 == 0), evicts it
        assert not cache.lookup(0)
        cache.fill(1)  # different set
        assert cache.lookup(4) and cache.lookup(1)

    def test_private_caches_isolated_between_cores(self):
        config, machine = fresh_machine()
        counts = AccessCounts()
        machine.cores[0].access(0x10000, "load", counts)
        # Second core misses L1/L2 but hits the shared LLC.
        level = machine.cores[1].access(0x10000, "load", counts)
        assert level == "llc"

    def test_flush(self):
        config, machine = fresh_machine()
        counts = AccessCounts()
        machine.cores[0].access(0x10000, "load", counts)
        machine.flush()
        assert machine.cores[0].access(0x10000, "load", counts) in (
            "mem", "mem_stream",
        )


class TestStreamDetector:
    def test_sequential_misses_classified_as_stream(self):
        config, machine = fresh_machine()
        core = machine.cores[0]
        counts = AccessCounts()
        for i in range(8):
            core.access(0x40000 + 64 * i, "load", counts)
        assert counts.loads["mem"] == 1          # first miss is random
        assert counts.loads["mem_stream"] == 7   # the rest stream

    def test_random_misses_stay_random(self):
        config, machine = fresh_machine()
        core = machine.cores[0]
        counts = AccessCounts()
        for i in range(8):
            core.access(0x40000 + 64 * 97 * i, "load", counts)
        assert counts.loads["mem"] == 8
        assert counts.loads["mem_stream"] == 0


class TestAccessCounts:
    def test_merge(self):
        a, b = AccessCounts(), AccessCounts()
        a.record("load", "mem")
        b.record("load", "mem")
        b.record("prefetch", "l1")
        merged = a.merged(b)
        assert merged.loads["mem"] == 2
        assert merged.prefetches["l1"] == 1

    def test_demand_and_prefetch_miss_props(self):
        counts = AccessCounts()
        counts.record("load", "mem")
        counts.record("store", "mem_stream")
        counts.record("prefetch", "mem")
        assert counts.demand_mem_misses == 2
        assert counts.prefetch_mem_misses == 1


def make_profile(instructions=1000, slots=1000, **level_counts):
    counts = AccessCounts()
    for key, value in level_counts.items():
        kind, level = key.split("_", 1)
        bucket = {"load": counts.loads, "store": counts.stores,
                  "pf": counts.prefetches}[kind]
        bucket[level] += value
    return PhaseProfile(instructions=instructions, slots=slots, counts=counts)


class TestTimingModel:
    def test_compute_time_scales_with_frequency(self):
        config = MachineConfig()
        profile = make_profile()
        t_min = profile.time_ns(config.fmin, config)
        t_max = profile.time_ns(config.fmax, config)
        assert t_min / t_max == pytest.approx(
            config.fmax.freq_ghz / config.fmin.freq_ghz
        )

    def test_memory_time_frequency_independent(self):
        config = MachineConfig()
        profile = make_profile(instructions=10, slots=10, load_mem=100)
        t_min = profile.time_ns(config.fmin, config)
        t_max = profile.time_ns(config.fmax, config)
        assert t_min == pytest.approx(t_max, rel=0.02)

    def test_prefetches_overlap_compute(self):
        config = MachineConfig()
        compute_only = make_profile()
        with_prefetch = make_profile(pf_mem=2)
        # Two prefetch misses hide entirely under 250 cycles of compute.
        assert with_prefetch.time_ns(config.fmax, config) == pytest.approx(
            compute_only.time_ns(config.fmax, config)
        )

    def test_prefetch_mlp_exceeds_demand_mlp(self):
        config = MachineConfig()
        demand = make_profile(instructions=1, slots=1, load_mem=64)
        prefetch = make_profile(instructions=1, slots=1, pf_mem=64)
        assert prefetch.time_ns(config.fmax, config) < demand.time_ns(
            config.fmax, config
        )

    def test_stream_misses_cheaper_than_random(self):
        config = MachineConfig()
        random = make_profile(instructions=1, slots=1, load_mem=64)
        stream = make_profile(instructions=1, slots=1, load_mem_stream=64)
        assert stream.time_ns(config.fmax, config) < random.time_ns(
            config.fmax, config
        )

    def test_ipc_definition(self):
        config = MachineConfig()
        profile = make_profile(instructions=4000, slots=4000)
        point = config.fmax
        ipc = profile.ipc(point, config)
        assert ipc == pytest.approx(4.0)  # 4-wide, all single-slot

    def test_memory_boundedness_range(self):
        config = MachineConfig()
        assert make_profile().memory_boundedness(config) == 0.0
        heavy = make_profile(instructions=10, slots=10, load_mem=500)
        assert heavy.memory_boundedness(config) > 0.9

    def test_merge_and_scale(self):
        config = MachineConfig()
        a = make_profile(load_mem=10)
        b = make_profile(load_mem=6)
        merged = a.merged(b)
        assert merged.counts.loads["mem"] == 16
        scaled = merged.scaled(2.0)
        assert scaled.counts.loads["mem"] == 32
        assert scaled.instructions == 2 * merged.instructions


class TestConfig:
    def test_operating_points_span_paper_range(self):
        config = MachineConfig()
        freqs = [p.freq_ghz for p in config.operating_points]
        assert freqs[0] == 1.6 and freqs[-1] == 3.4
        assert all(b > a for a, b in zip(freqs, freqs[1:]))
        volts = [p.voltage for p in config.operating_points]
        assert all(b > a for a, b in zip(volts, volts[1:]))

    def test_point_lookup(self):
        config = MachineConfig()
        assert config.point_for(2.4).freq_ghz == 2.4
        with pytest.raises(KeyError):
            config.point_for(5.0)

    def test_full_sandybridge_sizes(self):
        from repro.sim.config import sandybridge_full
        full = sandybridge_full()
        assert full.l1.size_bytes == 32 * 1024
        assert full.llc.size_bytes == 8 * 1024 * 1024
