"""Set-associative cache hierarchy (trace-driven, LRU).

Each core owns a private L1 and L2; the LLC is shared.  The hierarchy
consumes the interpreter's memory events and reports, per access, the
level that served it — the input to the core timing model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .config import CacheConfig, MachineConfig

#: Service levels, cheapest first.  ``mem_stream`` is a DRAM miss that
#: the hardware stream prefetcher detected (sequential line), serviced
#: with high memory-level parallelism; ``mem`` is a random-access miss.
LEVELS = ("l1", "l2", "llc", "mem", "mem_stream")


class Cache:
    """One set-associative LRU cache of line addresses.

    Each set is an :class:`~collections.OrderedDict` kept in recency
    order (LRU first, MRU last): a hit moves the line to the end, an
    eviction pops the front.  Every operation is O(1) — the previous
    implementation tagged lines with a global tick and paid an O(ways)
    ``min()`` scan per eviction.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Geometry bound once: ``config.sets``/``config.ways`` attribute
        # chains are off the per-access path entirely.
        self.nsets = config.sets
        self.ways = config.ways
        self.sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(config.sets)
        ]

    def lookup(self, line: int) -> bool:
        """True on hit; updates recency."""
        cache_set = self.sets[line % self.nsets]
        if line in cache_set:
            cache_set.move_to_end(line)
            return True
        return False

    def fill(self, line: int) -> None:
        """Insert a line, evicting LRU if the set is full."""
        cache_set = self.sets[line % self.nsets]
        if line in cache_set:
            return
        if len(cache_set) >= self.ways:
            cache_set.popitem(last=False)
        cache_set[line] = None

    def flush(self) -> None:
        for cache_set in self.sets:
            cache_set.clear()

    def resident_lines(self) -> int:
        return sum(len(s) for s in self.sets)


@dataclass
class AccessCounts:
    """Per-phase hit/miss tallies, split by demand vs. prefetch."""

    loads: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LEVELS, 0))
    stores: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LEVELS, 0))
    prefetches: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LEVELS, 0))

    def record(self, kind: str, level: str) -> None:
        # Branching beats building a selector dict per call; this is on
        # the per-memory-event hot path.
        if kind == "load":
            self.loads[level] += 1
        elif kind == "store":
            self.stores[level] += 1
        elif kind == "prefetch":
            self.prefetches[level] += 1
        else:
            raise KeyError(kind)

    @property
    def demand_mem_misses(self) -> int:
        return (
            self.loads["mem"] + self.loads["mem_stream"]
            + self.stores["mem"] + self.stores["mem_stream"]
        )

    @property
    def prefetch_mem_misses(self) -> int:
        return self.prefetches["mem"] + self.prefetches["mem_stream"]

    def total(self, kind: str) -> int:
        bucket = {
            "load": self.loads, "store": self.stores, "prefetch": self.prefetches,
        }[kind]
        return sum(bucket.values())

    def snapshot(self) -> dict:
        """Nested dict of all per-level tallies plus derived miss totals,
        for obs counter events and the JSONL event log."""
        return {
            "loads": dict(self.loads),
            "stores": dict(self.stores),
            "prefetches": dict(self.prefetches),
            "demand_mem_misses": self.demand_mem_misses,
            "prefetch_mem_misses": self.prefetch_mem_misses,
        }

    def copy(self) -> "AccessCounts":
        return AccessCounts(
            dict(self.loads), dict(self.stores), dict(self.prefetches),
        )

    def merged(self, other: "AccessCounts") -> "AccessCounts":
        result = AccessCounts()
        for mine, theirs, out in (
            (self.loads, other.loads, result.loads),
            (self.stores, other.stores, result.stores),
            (self.prefetches, other.prefetches, result.prefetches),
        ):
            for level in LEVELS:
                out[level] = mine[level] + theirs[level]
        return result


class CoreCaches:
    """The private L1+L2 of one core, in front of a shared LLC.

    A simple stream-prefetcher model classifies DRAM misses: a miss
    whose line adjoins one of the core's recently-missed lines is a
    *stream* miss (the hardware prefetcher would have it in flight);
    anything else is a random miss that pays the full demand penalty.
    """

    #: How many recent miss lines the stream detector remembers.
    STREAM_WINDOW = 16

    def __init__(self, config: MachineConfig, shared_llc: Cache):
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.llc = shared_llc
        self.line_bytes = config.l1.line_bytes
        # Per-level geometry and set lists bound once for the inlined
        # ``access`` body (and the two trace replay stages, which read
        # the same attributes).  ``Cache.flush`` clears each set dict in
        # place, so the bound lists never go stale.
        self._l1_sets = self.l1.sets
        self._l1_nsets = self.l1.nsets
        self._l1_ways = self.l1.ways
        self._l2_sets = self.l2.sets
        self._l2_nsets = self.l2.nsets
        self._l2_ways = self.l2.ways
        self._llc_sets = shared_llc.sets
        self._llc_nsets = shared_llc.nsets
        self._llc_ways = shared_llc.ways
        #: ``log2(line_bytes)`` or -1 (see :class:`CacheConfig`).
        self._line_shift = config.l1.line_shift
        self._recent_misses: list[int] = []
        #: MRU same-line filter: the line of this core's most recent
        #: access.  Every access path ends with its line filled into
        #: (or touched in) the L1 as most-recently-used, and only this
        #: core can evict from its private L1 — so a repeat of the same
        #: line is *guaranteed* an L1 hit whose move-to-end is a no-op,
        #: and the full lookup can be skipped without changing any
        #: cache state or count.  Consecutive same-line accesses are
        #: the overwhelming common case for affine streams (several
        #: word-sized touches per 64-byte line).  A cold or flushed
        #: core holds ``None``, which no line equals: every int is some
        #: line (``-1`` holds addresses -64..-1).
        self._mru_line: int | None = None
        #: How many accesses the filter short-circuited (the
        #: ``sim.l1.mru_shortcircuit`` obs counter).
        self.mru_hits = 0

    def access(self, address: int, kind: str, counts: AccessCounts) -> str:
        """Simulate one access; returns the level that served it.

        No profiling path calls this: every phase is counted by
        replaying its recording (:func:`repro.machines.replay.
        machine_stream`, over the stages of :mod:`repro.sim.replay`).
        It stays as the per-event reference that ``tests/sim/`` checks
        the replay stages against, event for event.

        The ``lookup``/``fill`` pair of every level is inlined here —
        on a miss path each fill inserts into the set whose membership
        test just failed, so the per-call method dispatch and the
        redundant re-probe inside :meth:`Cache.fill` both disappear.
        The sequence of dict operations (and therefore every count and
        every eviction) is identical to the composed form, which
        ``tests/sim/test_cache_geometry.py`` pins.
        """
        shift = self._line_shift
        line = address >> shift if shift >= 0 else address // self.line_bytes
        if line == self._mru_line:
            self.mru_hits += 1
            counts.record(kind, "l1")
            return "l1"
        self._mru_line = line
        set1 = self._l1_sets[line % self._l1_nsets]
        if line in set1:
            set1.move_to_end(line)
            level = "l1"
        else:
            set2 = self._l2_sets[line % self._l2_nsets]
            if line in set2:
                set2.move_to_end(line)
                level = "l2"
            else:
                set3 = self._llc_sets[line % self._llc_nsets]
                if line in set3:
                    set3.move_to_end(line)
                    level = "llc"
                else:
                    level = "mem_stream" if self._is_stream(line) else "mem"
                    self._note_miss(line)
                    if len(set3) >= self._llc_ways:
                        set3.popitem(last=False)
                    set3[line] = None
                if len(set2) >= self._l2_ways:
                    set2.popitem(last=False)
                set2[line] = None
            if len(set1) >= self._l1_ways:
                set1.popitem(last=False)
            set1[line] = None
        counts.record(kind, level)
        return level

    def _is_stream(self, line: int) -> bool:
        return (line - 1) in self._recent_misses or (
            line + 1
        ) in self._recent_misses

    def _note_miss(self, line: int) -> None:
        self._recent_misses.append(line)
        if len(self._recent_misses) > self.STREAM_WINDOW:
            self._recent_misses.pop(0)

    def flush_private(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self._recent_misses.clear()
        self._mru_line = None


class MachineCaches:
    """All cores' cache hierarchies over one shared LLC."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.llc = Cache(config.llc)
        self.cores = [CoreCaches(config, self.llc) for _ in range(config.cores)]

    def flush(self) -> None:
        self.llc.flush()
        for core in self.cores:
            core.flush_private()
