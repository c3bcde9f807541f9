"""Core timing model: from dynamic counts to time-vs-frequency curves.

The model captures the one first-order effect DAE exploits: core cycles
scale with frequency, DRAM time does not.  A phase is summarized as

    T(f) = max(C / f, M_pf) + M_demand + M_store          [nanoseconds]

* ``C`` — frequency-scaled cycles: issue slots / width plus the visible
  part of L2/LLC hit latency for demand loads;
* ``M_demand`` — DRAM time of demand-load misses, overlapped by the
  demand MLP (loads stall retirement);
* ``M_store`` — DRAM time of store misses drained through the store
  buffer (cheap, but not free — this is what keeps LBM's execute phase
  partly memory-bound, Section 6.1's noted exception);
* ``M_pf`` — DRAM time of prefetch misses at the higher prefetch MLP;
  prefetches do not stall retirement, so they overlap the phase's
  compute (``max``) instead of adding to it.

IPC(f) = instructions / (T(f) · f) feeds the power model.

The four terms depend only on the phase and its config, never on f, so
each phase computes them once per timing-and-power model
(:attr:`~repro.sim.config.MachineConfig.terms_key`):
:meth:`PhaseProfile.terms` returns a :class:`PhaseTerms`, and every
per-point time and IPC comes from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..interp.interpreter import ExecutionTrace
from .cache import AccessCounts
from .config import MachineConfig, OperatingPoint

#: Issue-slot cost per opcode; anything missing costs one slot.
#: GEPs cost nothing: x86 folds address arithmetic into the load/store
#: addressing mode (SIB), and phis are resolved by register renaming.
SLOT_COSTS = {
    "fadd": 2, "fsub": 2, "fmul": 2, "fdiv": 10,
    "sdiv": 8, "srem": 8, "mul": 2,
    "call": 2,
    "gep": 0, "phi": 0,
}


def issue_slots(trace: ExecutionTrace) -> int:
    total = 0
    for opcode, count in trace.by_opcode.items():
        total += SLOT_COSTS.get(opcode, 1) * count
    return total


class PhaseTerms:
    """One phase's frequency terms under one config: C, M_pf, M_demand
    and M_store, plus the EDP-optimal point and its energy once the
    point has been picked.

    It is the only place that turns a phase into time and IPC at an
    operating point; a point off the config's table (an interpolated
    V/f point) works like any other.  Every config with ``config``'s
    :attr:`~repro.sim.config.MachineConfig.terms_key` shares it.
    """

    __slots__ = ("config", "instructions", "core_cycles", "prefetch_ns",
                 "demand_ns", "store_ns", "edp_point", "edp_energy")

    def __init__(self, profile: "PhaseProfile", config: MachineConfig):
        counts = profile.counts
        loads = counts.loads
        self.config = config
        self.instructions = profile.instructions
        cycles = profile.slots / config.issue_width
        cycles += (
            loads["l2"] * config.l2.latency_cycles * (1.0 - config.l2_hidden)
        )
        cycles += (
            loads["llc"]
            * config.llc.latency_cycles * (1.0 - config.llc_hidden)
        )
        self.core_cycles = cycles
        random_ns = loads["mem"] * config.mem_latency_ns / config.mlp_demand
        stream_ns = (
            loads["mem_stream"] * config.mem_latency_ns / config.mlp_hw_stream
        )
        self.demand_ns = random_ns + stream_ns
        stores = counts.stores["mem"] + counts.stores["mem_stream"]
        self.store_ns = stores * config.mem_latency_ns / config.mlp_store
        prefetches = (
            counts.prefetches["mem"] + counts.prefetches["mem_stream"]
        )
        self.prefetch_ns = (
            prefetches * config.mem_latency_ns / config.mlp_prefetch
        )
        #: Set by :func:`repro.power.frequency.optimal_edp_point`: the
        #: point from ``config``'s table, and its
        #: :class:`~repro.power.model.EnergyBreakdown`, which
        #: :func:`~repro.power.model.phase_energy_at` serves for it.
        self.edp_point = None
        self.edp_energy = None

    def time_ns(self, point: OperatingPoint) -> float:
        core_ns = self.core_cycles / point.freq_ghz
        busy = max(core_ns, self.prefetch_ns)
        return busy + self.demand_ns + self.store_ns

    def ipc(self, point: OperatingPoint, time_ns: float) -> float:
        """IPC at ``point``, whose phase time is ``time_ns``."""
        if time_ns <= 0.0:
            return 0.0
        cycles = time_ns * point.freq_ghz
        return self.instructions / cycles


@dataclass
class PhaseProfile:
    """Frequency-independent summary of one executed phase."""

    instructions: int = 0
    slots: int = 0
    counts: AccessCounts = field(default_factory=AccessCounts)

    def merged(self, other: "PhaseProfile") -> "PhaseProfile":
        return PhaseProfile(
            instructions=self.instructions + other.instructions,
            slots=self.slots + other.slots,
            counts=self.counts.merged(other.counts),
        )

    def scaled(self, factor: float) -> "PhaseProfile":
        """Extrapolate a sampled window to the full application."""
        scaled_counts = AccessCounts()
        for name in ("loads", "stores", "prefetches"):
            mine = getattr(self.counts, name)
            out = getattr(scaled_counts, name)
            for level, value in mine.items():
                out[level] = int(round(value * factor))
        return PhaseProfile(
            instructions=int(round(self.instructions * factor)),
            slots=int(round(self.slots * factor)),
            counts=scaled_counts,
        )

    # -- timing -------------------------------------------------------------------

    #: The terms under the model asked for last (see :meth:`terms`).
    #: Not a dataclass field: equality and payloads ignore it.
    _terms = None

    def terms(self, config: MachineConfig) -> PhaseTerms:
        """This phase's frequency terms under ``config``, computed once.

        One slot holds the terms of the model asked for last.  The same
        config object is served at once; another one is served the same
        terms when its :attr:`~repro.sim.config.MachineConfig.terms_key`
        equals theirs (a copy that differs only in how a DVFS switch is
        priced, say), and gets terms of its own otherwise.
        """
        terms = self._terms
        if terms is None or (terms.config is not config
                             and terms.config.terms_key != config.terms_key):
            terms = self._terms = PhaseTerms(self, config)
        return terms

    def time_ns(self, point: OperatingPoint, config: MachineConfig) -> float:
        return self.terms(config).time_ns(point)

    def ipc(self, point: OperatingPoint, config: MachineConfig) -> float:
        terms = self.terms(config)
        return terms.ipc(point, terms.time_ns(point))

    def memory_boundedness(self, config: MachineConfig) -> float:
        """Fraction of fmax time spent waiting on DRAM (diagnostic)."""
        terms = self.terms(config)
        total = terms.time_ns(config.fmax)
        if total <= 0.0:
            return 0.0
        mem = terms.demand_ns + terms.store_ns + terms.prefetch_ns
        return min(1.0, mem / total)
