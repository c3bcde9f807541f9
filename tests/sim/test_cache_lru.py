"""The O(1) OrderedDict cache is behaviourally identical to the old
tick-scan LRU, and the MRU same-line filter is transparent.

``TickLRU`` below re-implements the seed repository's cache verbatim —
a ``{line: last_use_tick}`` map per set, hits bump the tick, evictions
``min()``-scan for the stalest line — and randomized traces pin the new
:class:`repro.sim.cache.Cache` to it hit-for-hit, including the final
residency sets.  A second battery defeats the
:class:`~repro.sim.cache.CoreCaches` MRU filter access-by-access and
checks the served-level sequence is unchanged.
"""

import random

from repro.sim.cache import AccessCounts, Cache, MachineCaches
from repro.sim.config import CacheConfig, MachineConfig


class TickLRU:
    """The previous implementation: global tick + min() eviction scan."""

    def __init__(self, sets: int, ways: int):
        self.n_sets = sets
        self.ways = ways
        self.sets = [dict() for _ in range(sets)]
        self.tick = 0

    def lookup(self, line: int) -> bool:
        self.tick += 1
        cache_set = self.sets[line % self.n_sets]
        if line in cache_set:
            cache_set[line] = self.tick
            return True
        return False

    def fill(self, line: int) -> None:
        self.tick += 1
        cache_set = self.sets[line % self.n_sets]
        if line in cache_set:
            return
        if len(cache_set) >= self.ways:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line] = self.tick


SHAPES = [(1, 2), (4, 4), (8, 2), (16, 8), (64, 12)]


def _random_trace(rng, length, line_space):
    """A mix of random lines, short sequential runs, and re-touches —
    enough locality that hits, misses, and evictions all occur."""
    trace = []
    while len(trace) < length:
        roll = rng.random()
        if roll < 0.4 and trace:
            trace.append(rng.choice(trace[-20:]))  # temporal locality
        elif roll < 0.7:
            start = rng.randrange(line_space)
            trace.extend(start + i for i in range(rng.randrange(1, 6)))
        else:
            trace.append(rng.randrange(line_space))
    return trace[:length]


class TestOrderedDictMatchesTickLRU:
    def test_randomized_traces(self):
        for seed in range(5):
            rng = random.Random(seed)
            for sets, ways in SHAPES:
                new = Cache(CacheConfig(sets * ways * 64, ways))
                old = TickLRU(sets, ways)
                trace = _random_trace(rng, 2000, sets * ways * 3)
                for line in trace:
                    new_hit = new.lookup(line)
                    old_hit = old.lookup(line)
                    assert new_hit == old_hit, (seed, sets, ways, line)
                    if not new_hit:
                        new.fill(line)
                        old.fill(line)
                # Same resident lines per set at the end of the trace.
                for new_set, old_set in zip(new.sets, old.sets):
                    assert set(new_set) == set(old_set)

    def test_fill_of_resident_line_keeps_recency(self):
        """A redundant fill must not refresh recency (the old code
        early-returned before its tick update)."""
        cache = Cache(CacheConfig(2 * 64, 2))  # one set, two ways
        old = TickLRU(1, 2)
        for c in (cache, old):
            c.fill(0)
            c.fill(1)
            c.fill(0)   # no-op: 0 stays LRU
            c.fill(2)   # evicts 0, not 1
        assert set(cache.sets[0]) == set(old.sets[0]) == {1, 2}


class TestMRUFilterTransparent:
    def test_randomized_streams(self):
        """Defeating the filter before every access must not change the
        level sequence, the counts, or the final cache contents."""
        config = MachineConfig()
        for seed in range(3):
            rng = random.Random(100 + seed)
            filtered = MachineCaches(config)
            defeated = MachineCaches(config)
            counts_f, counts_d = AccessCounts(), AccessCounts()
            # Byte addresses with same-line repeats (the filter's prey).
            addresses = []
            for line in _random_trace(rng, 1500, 4096):
                base = line * config.l1.line_bytes
                addresses.extend(
                    base + rng.randrange(0, config.l1.line_bytes, 8)
                    for _ in range(rng.randrange(1, 4))
                )
            for i, address in enumerate(addresses):
                kind = ("load", "store", "prefetch")[i % 3]
                core_f = filtered.cores[i % config.cores]
                core_d = defeated.cores[i % config.cores]
                core_d._mru_line = -1  # force the full lookup path
                level_f = core_f.access(address, kind, counts_f)
                level_d = core_d.access(address, kind, counts_d)
                assert level_f == level_d, (seed, i, address)
            assert counts_f.snapshot() == counts_d.snapshot()
            assert sum(c.mru_hits for c in filtered.cores) > 0
            for core_f, core_d in zip(filtered.cores, defeated.cores):
                for cache_f, cache_d in (
                    (core_f.l1, core_d.l1), (core_f.l2, core_d.l2),
                ):
                    for set_f, set_d in zip(cache_f.sets, cache_d.sets):
                        # Same lines *and* same recency order.
                        assert list(set_f) == list(set_d)

    def test_flush_resets_filter(self):
        config = MachineConfig()
        machine = MachineCaches(config)
        core = machine.cores[0]
        counts = AccessCounts()
        core.access(0, "load", counts)
        assert core._mru_line == 0
        machine.flush()
        assert core._mru_line is None
        # Post-flush, the same line must miss all the way to memory.
        level = core.access(0, "load", counts)
        assert level in ("mem", "mem_stream")

    def test_line_minus_one_is_a_real_line(self):
        """Address -8 is on line -1.  A cold or flushed core's filter
        must not take it for its previous access: the prefetch misses
        to memory and fills line -1, per event, replayed, and replayed
        from a strip."""
        from array import array

        from repro.interp.trace import PhaseTrace
        from repro.sim.replay import replay_llc, replay_phase, replay_recorded

        def by_access(core, counts):
            assert core.access(-8, "prefetch", counts) in ("mem",
                                                           "mem_stream")

        def by_replay(core, counts):
            assert replay_phase(core, array("q", [2, -8]), counts) == 1

        def by_strip(core, counts):
            data = array("q", [2, -8])
            trace = PhaseTrace(data, 0, 0, {}, 1, 0, 0, {})
            replay_llc(core, replay_recorded(core, trace, counts), counts)
            assert trace.strip is not None

        for run in (by_access, by_replay, by_strip):
            for flush in (False, True):
                core = MachineCaches(MachineConfig()).cores[0]
                if flush:
                    core.access(4096, "load", AccessCounts())
                    core.flush_private()
                counts = AccessCounts()
                run(core, counts)
                assert counts.prefetches["l1"] == 0
                assert counts.prefetch_mem_misses == 1
                assert core.mru_hits == 0
                assert core._mru_line == -1
                assert -1 in core.l1.sets[-1 % core.l1.nsets]
