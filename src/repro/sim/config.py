"""Machine configuration: a Sandy Bridge-like quad core.

All model constants live here so experiments (and ablations) can vary
them.  Values are chosen to match the platform of the paper's
evaluation: an Intel Sandy Bridge quad core, 1.6–3.4 GHz DVFS range in
400 MHz steps (Section 6.2), 32K/256K private caches, shared 8M LLC,
and ~65 ns DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MachineConfigError(ValueError):
    """A machine description is internally inconsistent.

    Raised by :meth:`MachineConfig.validate` (and by the machine
    catalog constructors in :mod:`repro.machines`) so that a bad
    description fails loudly at build time instead of producing a
    quietly wrong simulation.
    """


@dataclass(frozen=True)
class CacheConfig:
    """One cache level.

    The derived geometry (``sets``, ``line_shift``, ``set_mask``) is
    computed once in ``__post_init__`` rather than recomputed per
    access: profiling showed the old ``sets`` *property* re-evaluated
    ~73k times in one small cg run, inside the hottest loop of the
    whole simulator.  The derived fields are excluded from equality,
    repr and the engine cache key (which serializes only the four base
    fields), so hoisting them changes no observable behaviour.
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency_cycles: int = 4

    #: ``size_bytes // (ways * line_bytes)`` — derived, set once.
    sets: int = field(init=False, repr=False, compare=False)
    #: ``log2(line_bytes)`` when the line size is a power of two
    #: (``address >> line_shift`` is then exactly ``address //
    #: line_bytes`` for any Python int, negatives included), else -1.
    line_shift: int = field(init=False, repr=False, compare=False)
    #: ``sets - 1`` when the set count is a power of two (``line &
    #: set_mask`` is then exactly ``line % sets``), else -1.
    set_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        object.__setattr__(self, "sets", sets)
        line = self.line_bytes
        object.__setattr__(
            self, "line_shift",
            line.bit_length() - 1 if line > 0 and line & (line - 1) == 0
            else -1,
        )
        object.__setattr__(
            self, "set_mask",
            sets - 1 if sets > 0 and sets & (sets - 1) == 0 else -1,
        )


@dataclass(frozen=True)
class OperatingPoint:
    """A DVFS step: frequency (GHz) and the voltage it requires."""

    freq_ghz: float
    voltage: float


def sandybridge_operating_points() -> tuple[OperatingPoint, ...]:
    """fmin=1.6 GHz to fmax=3.4 GHz in 400 MHz steps (Figure 4).

    Voltage scales linearly from 0.85 V to 1.25 V across the range —
    the shape the paper's power model needs (Section 3.2).
    """
    freqs = [1.6, 2.0, 2.4, 2.8, 3.2, 3.4]
    fmin, fmax = freqs[0], freqs[-1]
    vmin, vmax = 0.85, 1.25
    return tuple(
        OperatingPoint(f, vmin + (vmax - vmin) * (f - fmin) / (fmax - fmin))
        for f in freqs
    )


@dataclass(frozen=True)
class MachineConfig:
    """Everything the timing, cache and power models need.

    Capacity scaling: the cache *sizes* default to 1/16 of the real
    Sandy Bridge (2K/16K/24K instead of 32K/256K/8M), preserving the
    L1:L2:LLC capacity shape while letting workload footprints exceed
    the LLC at trace-driven-simulation scale.  Latencies, the DVFS
    range and the power model are unscaled.  ``sandybridge_full()``
    returns the full-size hierarchy for users who want it.
    """

    cores: int = 4
    issue_width: int = 4

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024, 4, latency_cycles=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024, 8, latency_cycles=12)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(24 * 1024, 16, latency_cycles=30)
    )

    #: DRAM access time, frequency-INDEPENDENT in wall-clock terms.  This
    #: is the non-proportionality DAE exploits: at low frequency the same
    #: 65 ns costs fewer core cycles.
    mem_latency_ns: float = 65.0

    #: Outstanding-miss overlap for demand loads (stall retirement) vs.
    #: prefetches (do not stall retirement — Section 3.1's motivation for
    #: using builtin_prefetch: "more memory level parallelism (MLP) over
    #: simple loads").
    mlp_demand: float = 5.0
    mlp_prefetch: float = 7.0
    #: Effective overlap for DRAM misses the hardware stream prefetcher
    #: catches (sequential lines).  On real Sandy Bridge the L2 streamer
    #:  makes coupled sequential scans nearly as memory-parallel as
    #: software prefetch, which is why DAE's win on streaming codes is
    #: energy, not time.
    mlp_hw_stream: float = 6.0
    #: Store-buffer drain overlap for store misses (stores rarely stall
    #: the pipeline — footnote 3 of the paper — but their DRAM traffic
    #: is not free; this keeps LBM's execute phase partly memory-bound).
    mlp_store: float = 4.0

    #: Fraction of L2/LLC hit latency the out-of-order window hides.
    l2_hidden: float = 0.5
    llc_hidden: float = 0.3

    operating_points: tuple[OperatingPoint, ...] = field(
        default_factory=sandybridge_operating_points
    )

    #: DVFS transition latency in nanoseconds (500 ns ≈ current Haswell,
    #: 0 ns = the ideal future hardware of Section 6.1).
    dvfs_transition_ns: float = 500.0

    # -- power model constants (Section 3.2, from Koukos et al. [14]) ----
    ceff_slope: float = 0.19   # nF per IPC
    ceff_base: float = 1.64    # nF
    static_base_w: float = 0.8     # W per active core, V-f independent part
    static_fv_w: float = 0.25      # W per active core per (GHz * V)

    #: Whether a DVFS ramp can overlap memory-bound work (FIVR-style:
    #: the core keeps clocking at the old point while voltage ramps, so
    #: a switch hides behind DRAM-bound phases).  False reproduces the
    #: pessimistic stall-for-500ns model as an ablation.
    dvfs_overlap: bool = True

    @property
    def fmin(self) -> OperatingPoint:
        return self.operating_points[0]

    @property
    def fmax(self) -> OperatingPoint:
        return self.operating_points[-1]

    def point_for(self, freq_ghz: float,
                  clamp: bool = False) -> OperatingPoint:
        """The table point nearest ``freq_ghz``.

        Within the DVFS range the request snaps to the nearest
        operating point, resolving an exact midpoint toward the
        *lower* frequency — the same contract as
        :func:`repro.power.frequency.fixed_policy_at`, so the two can
        never disagree about what ``2.2 GHz`` means.  Distances are
        quantized to 1 kHz so midpoints are real ties instead of
        hinging on float rounding.

        Out-of-range frequencies raise :class:`KeyError` (there is no
        such point on this machine) unless ``clamp=True``, which pins
        them to ``fmin``/``fmax`` — the heterogeneous scheduler uses
        that to project one core type's point onto another type's
        table.
        """
        points = sorted(self.operating_points, key=lambda p: p.freq_ghz)
        lo, hi = points[0].freq_ghz, points[-1].freq_ghz
        if not (lo - 1e-9 <= freq_ghz <= hi + 1e-9):
            if not clamp:
                raise KeyError(
                    "no operating point at %.2f GHz (range %.2f-%.2f)"
                    % (freq_ghz, lo, hi)
                )
            return points[0] if freq_ghz < lo else points[-1]
        return min(points, key=lambda p: (round(abs(p.freq_ghz - freq_ghz)
                                                * 1e6), p.freq_ghz))

    def validate(self) -> "MachineConfig":
        """Check internal consistency; raise :class:`MachineConfigError`.

        Returns ``self`` so constructors can end with
        ``return MachineConfig(...).validate()``.
        """
        if self.cores < 1:
            raise MachineConfigError(
                "cores must be >= 1, got %d" % self.cores
            )
        if self.issue_width < 1:
            raise MachineConfigError(
                "issue_width must be >= 1, got %d" % self.issue_width
            )
        if not self.operating_points:
            raise MachineConfigError("operating_points must not be empty")
        prev = None
        for point in self.operating_points:
            if point.freq_ghz <= 0 or point.voltage <= 0:
                raise MachineConfigError(
                    "operating point (%.3f GHz, %.3f V) must be positive"
                    % (point.freq_ghz, point.voltage)
                )
            if prev is not None:
                if point.freq_ghz <= prev.freq_ghz:
                    raise MachineConfigError(
                        "operating-point frequencies must be strictly "
                        "increasing; %.3f GHz follows %.3f GHz"
                        % (point.freq_ghz, prev.freq_ghz)
                    )
                if point.voltage < prev.voltage:
                    raise MachineConfigError(
                        "operating-point voltages must be non-decreasing; "
                        "%.3f V follows %.3f V"
                        % (point.voltage, prev.voltage)
                    )
            prev = point
        if self.mem_latency_ns <= 0:
            raise MachineConfigError(
                "mem_latency_ns must be positive, got %g"
                % self.mem_latency_ns
            )
        if self.dvfs_transition_ns < 0:
            raise MachineConfigError(
                "dvfs_transition_ns must be >= 0, got %g"
                % self.dvfs_transition_ns
            )
        for name in ("mlp_demand", "mlp_prefetch", "mlp_hw_stream",
                     "mlp_store"):
            if getattr(self, name) <= 0:
                raise MachineConfigError(
                    "%s must be positive, got %g" % (name, getattr(self, name))
                )
        for level in ("l1", "l2", "llc"):
            cache = getattr(self, level)
            if cache.latency_cycles <= 0:
                raise MachineConfigError(
                    "%s latency_cycles must be positive, got %d"
                    % (level, cache.latency_cycles)
                )
            if cache.size_bytes <= 0 or cache.ways <= 0:
                raise MachineConfigError(
                    "%s geometry must be positive (size_bytes=%d, ways=%d)"
                    % (level, cache.size_bytes, cache.ways)
                )
            if cache.sets < 1:
                raise MachineConfigError(
                    "%s needs at least one set; %d bytes cannot hold %d "
                    "ways of %d-byte lines"
                    % (level, cache.size_bytes, cache.ways,
                       cache.line_bytes)
                )
        return self


def sandybridge_full() -> MachineConfig:
    """The unscaled Sandy Bridge hierarchy (32K/256K/8M)."""
    return MachineConfig(
        l1=CacheConfig(32 * 1024, 8, latency_cycles=4),
        l2=CacheConfig(256 * 1024, 8, latency_cycles=12),
        llc=CacheConfig(8 * 1024 * 1024, 16, latency_cycles=30),
    ).validate()


DEFAULT_CONFIG = MachineConfig()
