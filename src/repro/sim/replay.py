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

A trace replayed more than once can skip most of its events in the
private stage.  Under LRU, an access to a line already touched in the
same phase has an outcome fixed by the phase alone: with fewer than
``ways`` distinct lines of its set touched since, it hits, whatever the
L1 held at phase start (the stack property of Mattson et al., 1970; the
trace stripping of Puzak, 1985).  :func:`build_strip` makes one
cold-start L1 pass over a packed trace and keeps a :class:`Strip`: the
per-kind tally of those fixed hits and, in order, every other event.
:func:`replay_stripped` walks only the kept events against a core's
real L1 and L2 and returns the same L2-miss stream as
:func:`replay_private`, leaving every set, the MRU line and
``mru_hits`` as it would; its docstring gives the argument.  A strip
costs about as much as one full private replay, so only traces
replayed again use one: :func:`strip_for` keeps it on the trace for
the last L1 geometry asked for.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict

from .cache import AccessCounts, CoreCaches


def _tally(counts: AccessCounts, level: str, per_kind: list) -> None:
    counts.loads[level] += per_kind[0]
    counts.stores[level] += per_kind[1]
    counts.prefetches[level] += per_kind[2]


def replay_private(core: CoreCaches, data, counts: AccessCounts) -> array:
    """Replay a packed trace through ``core``'s MRU filter, L1 and L2.

    ``data`` is the flat ``array('q')`` of (kind, address, size)
    triples from a :class:`~repro.interp.trace.PhaseTrace`, or the
    unpacked event list of a phase whose addresses do not all fit it.
    Tallies the L1 and L2 hits into ``counts`` and returns the L2
    misses, in order, as a flat ``array('q')`` (a list for a list
    ``data``) of (kind, line) pairs.  The core's
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
    # A packed trace's lines fit a signed 64-bit word; those of an
    # unpacked event list (an address beyond that range) may not.
    misses = array("q") if isinstance(data, array) else []
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


class Strip:
    """One packed trace reduced to the events whose L1 outcome depends
    on the cache state at phase start, for one L1 geometry.

    Built by :func:`build_strip` and replayed by
    :func:`replay_stripped`.  An empty trace has an empty strip, whose
    ``last_line`` is ``None``.
    """

    __slots__ = ("geometry", "fixed", "repeats", "kinds", "lines", "cold",
                 "last_line")

    def __init__(self, geometry: tuple, fixed: list, repeats: int,
                 kinds: bytearray, lines: array, cold: array, last_line):
        #: The L1 ``(sets, ways, line_bytes)`` the strip was built for.
        self.geometry = geometry
        #: Per kind code, the events whose L1 hit is fixed: same-line
        #: repeats, and lines touched earlier in the phase with fewer
        #: than ``ways`` distinct lines of their set touched since.
        self.fixed = fixed
        #: How many of them the MRU same-line filter serves.
        self.repeats = repeats
        #: Every other event, in order: its kind code and its line.
        #: The first event is always one of them.
        self.kinds = kinds
        self.lines = lines
        #: Every touched set's lines after the cold-start pass, set by
        #: set, each set in recency order (LRU first).
        self.cold = cold
        #: The last event's line.
        self.last_line = last_line


def _l1_geometry(core: CoreCaches) -> tuple:
    return core._l1_nsets, core._l1_ways, core.line_bytes


def build_strip(data, core: CoreCaches) -> Strip:
    """Strip a packed trace for ``core``'s L1 geometry.

    One pass through a cold L1 of that geometry, behind the MRU
    same-line filter.  The filter starts from ``None``, which no line
    equals, so the first event is always kept.  Reads only the
    geometry of ``core``, never its state.
    """
    line_bytes = core.line_bytes
    shift = core._line_shift
    nsets = core._l1_nsets
    ways = core._l1_ways
    sets = [OrderedDict() for _ in range(nsets)]
    fixed = [0, 0, 0]
    repeats = 0
    kinds = bytearray()
    lines = array("q")
    keep_kind = kinds.append
    keep_line = lines.append
    mru_line = None

    it = iter(data)
    for kind, address, _size in zip(it, it, it):
        line = address >> shift if shift >= 0 else address // line_bytes
        if line == mru_line:
            repeats += 1
            fixed[kind] += 1
            continue
        mru_line = line
        cold = sets[line % nsets]
        if line in cold:
            cold.move_to_end(line)
            fixed[kind] += 1
            continue
        keep_kind(kind)
        keep_line(line)
        if len(cold) >= ways:
            cold.popitem(last=False)
        cold[line] = None

    return Strip(
        _l1_geometry(core), fixed, repeats, kinds, lines,
        array("q", [line for cold in sets for line in cold]), mru_line,
    )


def strip_for(trace, core: CoreCaches) -> Strip:
    """The strip of ``trace`` (a :class:`~repro.interp.trace.PhaseTrace`
    with packed ``data``) for ``core``'s L1 geometry.

    The trace keeps one strip, for the last geometry asked for: a strip
    for another geometry is rebuilt and replaces it.
    """
    strip = trace.strip
    if strip is None or strip.geometry != _l1_geometry(core):
        strip = trace.strip = build_strip(trace.data, core)
    return strip


def replay_stripped(core: CoreCaches, strip: Strip,
                    counts: AccessCounts) -> array:
    """The private stage of a stripped trace: same tallies, same
    L2-miss stream and same final private state as
    :func:`replay_private` over the whole trace.

    For each touched set, the core's L1 set itself serves as
    ``pending``: the lines resident at phase start that the phase has
    not touched yet, oldest first.  A kept event whose line is pending
    hits the L1 and leaves ``pending``.  Every other kept event misses
    the L1 and goes to the L2 as in :func:`replay_private`; it evicts
    ``pending[0]`` when the set's cold occupancy plus ``len(pending)``
    reaches ``ways``.  The cold occupancy before a kept event is the
    number of earlier kept events of its set (it can only pass
    ``ways`` once ``pending`` is empty).  At the end each touched set is
    ``pending`` followed by its cold order.

    Why this is exact: by induction over the kept events, the real set
    is always ``pending`` followed by the cold-start set.  A fixed hit
    touches a line in the cold part only, and moves it there exactly as
    the cold pass did.  A first touch of a pending line hits, and the
    cold pass appended the line without evicting (the real set holds at
    most ``ways`` lines, ``pending`` at least one).  Any other kept
    event misses both; the real set evicts its oldest line, which is
    ``pending[0]`` while ``pending`` is non-empty and otherwise the cold
    set's own victim.

    The MRU filter: a strip's first event is always kept, and the core's
    MRU line is the most recent line of its L1 set, so a first event
    that repeats it replays as a pending hit.  The real filter served
    that event, so it adds one to ``mru_hits``.
    """
    lines = strip.lines
    if not lines:
        return array("q")     # an empty phase changes nothing
    l1_sets = core._l1_sets
    l1_nsets = core._l1_nsets
    l1_ways = core._l1_ways
    l2_sets = core._l2_sets
    l2_nsets = core._l2_nsets
    l2_ways = core._l2_ways
    l1_hits = list(strip.fixed)
    l2_hits = [0, 0, 0]
    occupancy = [0] * l1_nsets
    misses = array("q")
    miss = misses.append
    mru_hits = strip.repeats + (lines[0] == core._mru_line)

    for kind, line in zip(strip.kinds, lines):
        index = line % l1_nsets
        pending = l1_sets[index]
        cold = occupancy[index]
        occupancy[index] = cold + 1
        if line in pending:
            del pending[line]
            l1_hits[kind] += 1
            continue
        if pending and cold + len(pending) >= l1_ways:
            pending.popitem(last=False)
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

    for line in strip.cold:
        l1_sets[line % l1_nsets][line] = None
    core._mru_line = strip.last_line
    core.mru_hits += mru_hits
    _tally(counts, "l1", l1_hits)
    _tally(counts, "l2", l2_hits)
    return misses


def replay_phase(core: CoreCaches, data, counts: AccessCounts,
                 trace=None) -> int:
    """Replay a packed trace on ``core``, tallying into ``counts``.

    The private stage and then the LLC stage over the same trace.
    With ``trace``, the :class:`~repro.interp.trace.PhaseTrace` whose
    packed ``data`` this is, the private stage replays the trace's
    strip for ``core``'s L1 geometry, building it first when the trace
    holds none for it (:func:`strip_for`).  Returns the number of
    events the phase stands for, stripped or not.  All cache state
    (including the shared LLC) is mutated exactly as interpretation
    would.
    """
    if trace is None:
        misses = replay_private(core, data, counts)
    else:
        misses = replay_stripped(core, strip_for(trace, core), counts)
    replay_llc(core, misses, counts)
    return len(data) // 3


__all__ = [
    "Strip", "build_strip", "replay_llc", "replay_phase", "replay_private",
    "replay_stripped", "strip_for",
]
