"""Replay recorded event traces through the cache hierarchy, in two stages.

A packed ``(kind, address, size)`` trace (:mod:`repro.interp.trace`)
replays through one core's caches without the interpreter, in two
stages:

* :func:`replay_private` runs the MRU same-line filter, the L1 and the
  L2.  It tallies the accesses they serve and returns the ordered
  stream of L2 misses as packed ``(kind, line)`` pairs.
* :func:`replay_llc` pushes that miss stream through the shared LLC
  and the core's stream-miss window, tallying LLC hits and DRAM misses.

The split is exact because nothing flows back up: the LLC is
non-inclusive and never back-invalidates, so the private levels never
read it, and the stream window moves only on LLC misses.  Over a
sequence of phases, the private stage's output therefore depends on
the traces and the private geometry alone.  A machine sweep
(:func:`repro.machines.replay.machine_stream`) runs it once per private
geometry and the LLC stage once per machine;
:func:`replay_phase` runs the two back to back.

Both loops bind every piece of hot state to a local and iterate the
packed array a record at a time via ``zip`` of one shared iterator.
Per-kind tallies go into small lists indexed by the kind code and are
folded into the :class:`~repro.sim.cache.AccessCounts` once per call.

Bit-exactness contract: the sequence of set-dict operations (probes,
``move_to_end``, evictions, fills) on every cache, the MRU filter
decisions, the stream/random miss classification and every per-level
count are identical to feeding each event through ``core.access`` one
at a time.  ``tests/sim/test_cache_geometry.py`` pins this on
randomized streams, with the stages composed and driven separately.
"""

from __future__ import annotations

from array import array

from .cache import AccessCounts, CoreCaches


def _tally(counts: AccessCounts, level: str, per_kind: list) -> None:
    counts.loads[level] += per_kind[0]
    counts.stores[level] += per_kind[1]
    counts.prefetches[level] += per_kind[2]


def replay_private(core: CoreCaches, data, counts: AccessCounts) -> array:
    """Replay a packed trace through ``core``'s MRU filter, L1 and L2.

    ``data`` is the flat ``array('q')`` of (kind, address, size)
    triples from a :class:`~repro.interp.trace.PhaseTrace`.  Tallies
    the L1 and L2 hits into ``counts`` and returns the L2 misses, in
    order, as a flat ``array('q')`` of (kind, line) pairs.  The core's
    private caches, MRU line and ``mru_hits`` end exactly as a full
    replay leaves them; the LLC and the stream window are untouched.
    """
    line_bytes = core.line_bytes
    shift = core._line_shift
    l1_sets = core._l1_sets
    l1_nsets = core._l1_nsets
    l1_ways = core._l1_ways
    l2_sets = core._l2_sets
    l2_nsets = core._l2_nsets
    l2_ways = core._l2_ways
    mru_line = core._mru_line
    mru_hits = 0
    l1_hits = [0, 0, 0]
    l2_hits = [0, 0, 0]
    misses = array("q")
    miss = misses.append

    it = iter(data)
    for kind, address, _size in zip(it, it, it):
        line = address >> shift if shift >= 0 else address // line_bytes
        if line == mru_line:
            mru_hits += 1
            l1_hits[kind] += 1
            continue
        mru_line = line
        set1 = l1_sets[line % l1_nsets]
        if line in set1:
            set1.move_to_end(line)
            l1_hits[kind] += 1
            continue
        set2 = l2_sets[line % l2_nsets]
        if line in set2:
            set2.move_to_end(line)
            l2_hits[kind] += 1
        else:
            miss(kind)
            miss(line)
            if len(set2) >= l2_ways:
                set2.popitem(last=False)
            set2[line] = None
        if len(set1) >= l1_ways:
            set1.popitem(last=False)
        set1[line] = None

    core._mru_line = mru_line
    core.mru_hits += mru_hits
    _tally(counts, "l1", l1_hits)
    _tally(counts, "l2", l2_hits)
    return misses


def replay_llc(core: CoreCaches, misses, counts: AccessCounts) -> None:
    """Replay an L2-miss stream through the shared LLC.

    ``misses`` is what :func:`replay_private` returned for the same
    core.  Each miss probes ``core``'s LLC; an LLC miss is classified
    by the core's stream-miss window, joins it, and fills the LLC.
    Tallies the ``llc``, ``mem_stream`` and ``mem`` levels into
    ``counts``.
    """
    llc_sets = core._llc_sets
    llc_nsets = core._llc_nsets
    llc_ways = core._llc_ways
    recent = core._recent_misses
    window = core.STREAM_WINDOW
    llc_hits = [0, 0, 0]
    mem_stream = [0, 0, 0]
    mem = [0, 0, 0]

    it = iter(misses)
    for kind, line in zip(it, it):
        set3 = llc_sets[line % llc_nsets]
        if line in set3:
            set3.move_to_end(line)
            llc_hits[kind] += 1
            continue
        if (line - 1) in recent or (line + 1) in recent:
            mem_stream[kind] += 1
        else:
            mem[kind] += 1
        recent.append(line)
        if len(recent) > window:
            del recent[0]
        if len(set3) >= llc_ways:
            set3.popitem(last=False)
        set3[line] = None

    _tally(counts, "llc", llc_hits)
    _tally(counts, "mem_stream", mem_stream)
    _tally(counts, "mem", mem)


def replay_phase(core: CoreCaches, data, counts: AccessCounts) -> int:
    """Replay a packed trace on ``core``, tallying into ``counts``.

    The private stage and then the LLC stage over the same trace.
    Returns the number of events replayed.  All cache state (including
    the shared LLC) is mutated exactly as interpretation would.
    """
    replay_llc(core, replay_private(core, data, counts), counts)
    return len(data) // 3


__all__ = ["replay_llc", "replay_phase", "replay_private"]
