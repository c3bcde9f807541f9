"""Pins for the hoisted cache geometry, the inlined access fast path
and the two-stage replay kernel.

``CacheConfig`` precomputes ``sets``/``line_shift``/``set_mask`` once;
``CoreCaches.access`` inlines the per-level lookup/fill pair; and
``sim/replay.py`` replays a packed trace in two stages, the private
levels (``replay_private``) and then the shared LLC (``replay_llc``),
composed by ``replay_phase``.  None of that may change a single count
or eviction — these tests feed identical randomized streams through
the fast paths and through a straightforward composed reference, or
per-event ``access`` calls, and require bit-identical tallies *and*
bit-identical final cache state (every line of every set, in recency
order), with the stages composed and driven as separate passes.  The
stripped private stage (``build_strip`` / ``replay_stripped``) is held
to the same standard on random geometries, flushes and warm states.
"""

import random
from dataclasses import replace

from repro.sim.cache import AccessCounts, CoreCaches, MachineCaches
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.replay import replay_phase

KIND_NAMES = ("load", "store", "prefetch")


# -- derived geometry ----------------------------------------------------------


class TestDerivedGeometry:
    def test_default_levels(self):
        config = MachineConfig()
        assert config.l1.sets == 8          # 2K / (4 * 64)
        assert config.l2.sets == 32         # 16K / (8 * 64)
        assert config.llc.sets == 24        # 24K / (16 * 64) — NOT 2^k
        assert config.l1.line_shift == 6
        assert config.l1.set_mask == 7
        assert config.l2.set_mask == 31
        assert config.llc.set_mask == -1    # 24 sets: modulo, not mask

    def test_non_power_of_two_line(self):
        cache = CacheConfig(1536, 4, line_bytes=48)
        assert cache.line_shift == -1
        assert cache.sets == 8

    def test_derived_fields_excluded_from_identity(self):
        a = CacheConfig(2048, 4)
        b = CacheConfig(2048, 4)
        assert a == b
        assert hash(a) == hash(b)
        assert "line_shift" not in repr(a)

    def test_shift_equals_division_for_negative_addresses(self):
        # Replay and access both use ``address >> shift`` on the fast
        # path; Python's arithmetic shift floors exactly like ``//``.
        for address in (-1, -63, -64, -65, -4096, 0, 1, 63, 64, 12345):
            assert address >> 6 == address // 64


# -- the composed reference model ----------------------------------------------


def _reference_access(core: CoreCaches, address: int, kind: str,
                      counts: AccessCounts) -> str:
    """The pre-inline composed form: Cache.lookup / Cache.fill method
    calls, in the exact order the inlined body performs them."""
    line = address // core.line_bytes
    if line == core._mru_line:
        core.mru_hits += 1
        counts.record(kind, "l1")
        return "l1"
    core._mru_line = line
    if core.l1.lookup(line):
        level = "l1"
    elif core.l2.lookup(line):
        level = "l2"
        core.l1.fill(line)
    elif core.llc.lookup(line):
        level = "llc"
        core.l2.fill(line)
        core.l1.fill(line)
    else:
        level = "mem_stream" if core._is_stream(line) else "mem"
        core._note_miss(line)
        core.llc.fill(line)
        core.l2.fill(line)
        core.l1.fill(line)
    counts.record(kind, level)
    return level


def _machine_state(machine: MachineCaches) -> list:
    """Every line of every set of every cache, in recency order."""
    core = machine.cores[0]
    return [
        [list(s) for s in cache.sets]
        for cache in (core.l1, core.l2, machine.llc)
    ]


def _random_events(seed: int, count: int) -> list:
    """(kind_code, address) pairs with sequential runs, reuse,
    negatives and far-flung strides — everything the classifier and the
    eviction paths can see."""
    rng = random.Random(seed)
    events = []
    address = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.35:
            address += 8                      # same/adjacent line runs
        elif roll < 0.55:
            address += 64                     # next line (stream hits)
        elif roll < 0.75:
            address = rng.randrange(0, 1 << 16)
        elif roll < 0.9:
            address = rng.randrange(-(1 << 12), 0)
        else:
            address = rng.randrange(0, 1 << 40)
        events.append((rng.randrange(3), address))
    return events


class TestInlinedAccess:
    def test_matches_composed_reference(self):
        for seed in (1, 7, 42):
            events = _random_events(seed, 4000)
            fast_machine = MachineCaches(MachineConfig())
            ref_machine = MachineCaches(MachineConfig())
            fast_counts, ref_counts = AccessCounts(), AccessCounts()
            fast_core = fast_machine.cores[0]
            ref_core = ref_machine.cores[0]
            for kind_code, address in events:
                kind = KIND_NAMES[kind_code]
                got = fast_core.access(address, kind, fast_counts)
                expect = _reference_access(ref_core, address, kind,
                                           ref_counts)
                assert got == expect
            assert fast_counts.snapshot() == ref_counts.snapshot()
            assert fast_core.mru_hits == ref_core.mru_hits
            assert _machine_state(fast_machine) == _machine_state(ref_machine)

    def test_flush_keeps_bound_set_lists_fresh(self):
        machine = MachineCaches(MachineConfig())
        core = machine.cores[0]
        counts = AccessCounts()
        for address in range(0, 8192, 64):
            core.access(address, "load", counts)
        machine.flush()
        assert core.l1.resident_lines() == 0
        assert machine.llc.resident_lines() == 0
        # The bound lists alias the cleared sets; a fresh access lands
        # in the same dicts the Cache objects report on.
        assert core.access(128, "load", counts) in ("mem", "mem_stream")
        assert core.l1.resident_lines() == 1


class TestReplayPhase:
    def test_matches_per_event_access(self):
        from array import array

        for seed in (3, 9, 2026):
            events = _random_events(seed, 4000)
            direct_machine = MachineCaches(MachineConfig())
            replay_machine = MachineCaches(MachineConfig())
            direct_counts, replay_counts = AccessCounts(), AccessCounts()
            direct_core = direct_machine.cores[0]
            for kind_code, address in events:
                direct_core.access(address, KIND_NAMES[kind_code],
                                   direct_counts)
            flat = [value for event in events for value in event]
            replayed = replay_phase(
                replay_machine.cores[0], array("q", flat), replay_counts,
            )
            assert replayed == len(events)
            assert replay_counts.snapshot() == direct_counts.snapshot()
            assert (replay_machine.cores[0].mru_hits
                    == direct_core.mru_hits)
            assert (replay_machine.cores[0]._mru_line
                    == direct_core._mru_line)
            assert (replay_machine.cores[0]._recent_misses
                    == direct_core._recent_misses)
            assert _machine_state(replay_machine) == _machine_state(
                direct_machine
            )

    def test_shared_llc_state_carries_across_phases(self):
        """Two replays on the same machine see each other's LLC fills,
        exactly like two interpreted phases would."""
        from array import array

        events = _random_events(11, 1500)
        flat = array("q", [v for e in events for v in e])
        direct = MachineCaches(MachineConfig())
        replayed = MachineCaches(MachineConfig())
        for _ in range(2):
            counts_a, counts_b = AccessCounts(), AccessCounts()
            for kind_code, address in events:
                direct.cores[0].access(address, KIND_NAMES[kind_code],
                                       counts_a)
            replay_phase(replayed.cores[0], flat, counts_b)
            assert counts_a.snapshot() == counts_b.snapshot()
        assert _machine_state(direct) == _machine_state(replayed)


class TestSplitStages:
    """``replay_private`` and ``replay_llc`` driven as the machine
    replay drives them: every phase's private stage first, then every
    phase's LLC stage in the same order, on separate cache objects."""

    def test_two_passes_match_per_event_access(self):
        from array import array

        from repro.sim.replay import replay_llc, replay_private

        config = MachineConfig(cores=2)
        for seed in (5, 17, 2026):
            rng = random.Random(seed)
            # (core, flush first?, events) per phase; the two cores'
            # phases interleave in a random order.
            phases = [
                (rng.randrange(2), rng.random() < 0.3,
                 _random_events(seed * 100 + n, rng.randrange(100, 1500)))
                for n in range(16)
            ]
            direct = MachineCaches(config)
            private = MachineCaches(config)   # its LLC stays unused
            shared = MachineCaches(config)    # its privates stay unused
            direct_counts, stages = [], []
            for core, flush, events in phases:
                if flush:
                    direct.cores[core].flush_private()
                    private.cores[core].flush_private()
                counts = AccessCounts()
                for kind_code, address in events:
                    direct.cores[core].access(address, KIND_NAMES[kind_code],
                                              counts)
                direct_counts.append(counts.snapshot())
                tallies = AccessCounts()
                flat = array("q", [value for e in events for value in e])
                stages.append((tallies, replay_private(private.cores[core],
                                                       flat, tallies)))
            for (core, flush, _), (tallies, misses), expect in zip(
                    phases, stages, direct_counts):
                if flush:
                    shared.cores[core].flush_private()
                counts = AccessCounts()
                replay_llc(shared.cores[core], misses, counts)
                assert tallies.merged(counts).snapshot() == expect

            assert private.llc.resident_lines() == 0
            for index in range(2):
                want = direct.cores[index]
                got_private = private.cores[index]
                got_shared = shared.cores[index]
                assert got_private.mru_hits == want.mru_hits
                assert got_private._mru_line == want._mru_line
                assert got_private._recent_misses == []
                assert got_shared._recent_misses == want._recent_misses
                assert got_shared.l1.resident_lines() == 0
                assert got_shared.l2.resident_lines() == 0
                for mine, theirs in ((got_private.l1, want.l1),
                                     (got_private.l2, want.l2)):
                    assert ([list(s) for s in mine.sets]
                            == [list(s) for s in theirs.sets])
            assert ([list(s) for s in shared.llc.sets]
                    == [list(s) for s in direct.llc.sets])


class TestLLCStage:
    """``replay_llc``, which finds a line in the stream window through
    each line's latest miss, against per-event ``access`` over several
    phases on one core.  Tiny private caches pass almost every event to
    the LLC stage, so its input is dense in ±1 lines and repeats lines;
    a small LLC misses them again, so the window holds repeats.  Long
    phases wrap the window, short ones leave part of the previous
    phase's window in it, and some phases are empty."""

    @staticmethod
    def _phase(rng, line):
        events = []
        for _ in range(rng.choice((0, 1, 5, 12, 40, 300))):
            roll = rng.random()
            if roll < 0.8:
                line += rng.choice((-1, 0, 1, 1, 2))
            elif roll < 0.95:
                line = rng.randrange(64)
            else:
                line = rng.randrange(1 << 20)
            events.append((rng.randrange(3),
                           line * 64 + rng.randrange(0, 64, 8)))
        return events, line

    def test_matches_per_event_access(self):
        from array import array

        from repro.sim.replay import replay_llc, replay_private

        def level(sets, ways):
            return CacheConfig(sets * ways * 64, ways)

        windows = set()
        streams = randoms = 0
        for seed in range(10):
            rng = random.Random(4200 + seed)
            config = MachineConfig(
                cores=1, l1=level(1, 1), l2=level(1, rng.randint(1, 2)),
                llc=level(rng.randint(1, 4), rng.randint(1, 4)),
            )
            direct, replayed = MachineCaches(config), MachineCaches(config)
            want_core, got_core = direct.cores[0], replayed.cores[0]
            line = 0
            for step in range(40):
                events, line = self._phase(rng, line)
                want, got = AccessCounts(), AccessCounts()
                for kind_code, address in events:
                    want_core.access(address, KIND_NAMES[kind_code], want)
                flat = array("q", [v for e in events for v in e])
                replay_llc(got_core, replay_private(got_core, flat, got),
                           got)
                assert got.snapshot() == want.snapshot(), (seed, step)
                assert (got_core._recent_misses
                        == want_core._recent_misses), (seed, step)
                assert ([list(s) for s in replayed.llc.sets]
                        == [list(s) for s in direct.llc.sets])
                window = want_core._recent_misses
                windows.add((len(window) == CoreCaches.STREAM_WINDOW,
                             len(set(window)) < len(window)))
                for bucket in (want.loads, want.stores, want.prefetches):
                    streams += bucket["mem_stream"]
                    randoms += bucket["mem"]
        # Full windows, with and without repeated lines, were seen, and
        # both miss classes.
        assert {(True, True), (True, False)} <= windows
        assert streams and randoms


class TestStrippedReplay:
    """A strip replayed through ``replay_recorded`` on interleaved phases
    of several cores over one LLC, against per-event ``access`` calls
    (counts, final state) and against the full private stage (miss
    streams), on random L1/L2/LLC geometries.  Traces are reused, so a
    strip built on one core replays on others, warmed differently; one
    trace is empty."""

    @staticmethod
    def _config(rng):
        line = rng.choice((64, 64, 48))

        def level(max_sets, max_ways):
            sets, ways = rng.randint(1, max_sets), rng.randint(1, max_ways)
            return CacheConfig(sets * ways * line, ways, line_bytes=line)

        return MachineConfig(cores=rng.randint(1, 3), l1=level(64, 8),
                             l2=level(64, 8), llc=level(128, 16))

    @staticmethod
    def _private_state(core):
        return ([list(s) for s in core.l1.sets],
                [list(s) for s in core.l2.sets],
                core._mru_line, core.mru_hits)

    def test_matches_per_event_access(self):
        from array import array

        from repro.interp.trace import PhaseTrace
        from repro.sim.replay import (
            build_strip,
            replay_llc,
            replay_private,
            replay_recorded,
            replay_stripped,
        )

        for seed in range(12):
            rng = random.Random(9000 + seed)
            config = self._config(rng)
            traces = [[]] + [
                _random_events(seed * 1000 + n, rng.randrange(1, 1200))
                for n in range(5)
            ]
            packed = [array("q", [v for e in events for v in e])
                      for events in traces]
            phase_traces = [PhaseTrace(data, 0, 0, {}, len(data) // 2, 0, 0,
                                       {}) for data in packed]
            direct = MachineCaches(config)
            full = MachineCaches(config)
            stripped = MachineCaches(config)
            for step in range(40):
                core = rng.randrange(config.cores)
                pick = 0 if step == 7 else rng.randrange(len(traces))
                if rng.random() < 0.2:
                    for machine in (direct, full, stripped):
                        machine.cores[core].flush_private()
                want = AccessCounts()
                for kind_code, address in traces[pick]:
                    direct.cores[core].access(address, KIND_NAMES[kind_code],
                                              want)
                full_counts, strip_counts = AccessCounts(), AccessCounts()
                full_misses = replay_private(full.cores[core], packed[pick],
                                             full_counts)
                replay_llc(full.cores[core], full_misses, full_counts)
                strip = phase_traces[pick].strip
                if strip is not None:
                    # A fresh strip must equal the one the trace keeps,
                    # and the stages driven by hand must match
                    # ``replay_recorded`` and ``replay_llc``.
                    rebuilt = build_strip(packed[pick], stripped.cores[core])
                    assert rebuilt.kinds == strip.kinds
                    assert rebuilt.lines == strip.lines
                    assert rebuilt.cold == strip.cold
                    misses = replay_stripped(stripped.cores[core], strip,
                                             strip_counts)
                    assert misses == full_misses, (seed, step)
                    replay_llc(stripped.cores[core], misses, strip_counts)
                else:
                    misses = replay_recorded(stripped.cores[core],
                                             phase_traces[pick], strip_counts)
                    assert misses == full_misses, (seed, step)
                    replay_llc(stripped.cores[core], misses, strip_counts)
                assert full_counts.snapshot() == want.snapshot()
                assert strip_counts.snapshot() == want.snapshot(), (seed,
                                                                    step)
                for machine in (full, stripped):
                    for mine, theirs in zip(machine.cores, direct.cores):
                        assert (self._private_state(mine)
                                == self._private_state(theirs)), (seed, step)
                        assert mine._recent_misses == theirs._recent_misses
                    assert ([list(s) for s in machine.llc.sets]
                            == [list(s) for s in direct.llc.sets])

    def test_one_trace_alternating_l1_geometries(self):
        """A trace replayed under two L1 geometries in turn rebuilds its
        strip for each one and stays exact under both."""
        from array import array

        from repro.interp.trace import PhaseTrace
        from repro.sim.replay import replay_llc, replay_recorded

        for seed in range(6):
            rng = random.Random(7000 + seed)
            events = _random_events(seed, rng.randrange(200, 1200))
            data = array("q", [v for e in events for v in e])
            trace = PhaseTrace(data, 0, 0, {}, len(events), 0, 0, {})
            base = self._config(rng)
            configs = [base, replace(base, l1=self._config(rng).l1)]
            direct = [MachineCaches(config) for config in configs]
            stripped = [MachineCaches(config) for config in configs]
            for step in range(8):
                pick = step % 2
                want, got = AccessCounts(), AccessCounts()
                for kind_code, address in events:
                    direct[pick].cores[0].access(
                        address, KIND_NAMES[kind_code], want)
                core = stripped[pick].cores[0]
                replay_llc(core, replay_recorded(core, trace, got), got)
                assert got.snapshot() == want.snapshot(), (seed, step)
                assert trace.strip.geometry == (
                    configs[pick].l1.sets, configs[pick].l1.ways,
                    configs[pick].l1.line_bytes)
                assert (self._private_state(stripped[pick].cores[0])
                        == self._private_state(direct[pick].cores[0]))
