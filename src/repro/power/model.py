"""The paper's power model (Section 3.2).

Effective capacitance is linear in IPC, calibrated on Sandy Bridge by
Koukos et al. [14]:  ``Ceff = 0.19 * IPC + 1.64`` (nanofarads), giving

    P_dynamic = Ceff * f * V^2            [W, with f in GHz]
    P_static  = per-core linear in f*V    [W]
    P_total   = sum over cores P_dynamic + P_static
    Energy    = T * P_total
    EDP       = T^2 * P_total

The same model both evaluates the experiments and drives the runtime's
optimal-EDP frequency selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import MachineConfig, OperatingPoint
from ..sim.timing import PhaseTerms


def effective_capacitance(ipc: float, config: MachineConfig) -> float:
    """Ceff in nF as a linear function of IPC."""
    return config.ceff_slope * ipc + config.ceff_base


def dynamic_power(point: OperatingPoint, ipc: float,
                  config: MachineConfig) -> float:
    """Per-core dynamic power in watts (nF * GHz * V^2 = W)."""
    ceff = effective_capacitance(ipc, config)
    return ceff * point.freq_ghz * point.voltage ** 2


def static_power(point: OperatingPoint, active_cores: int,
                 config: MachineConfig) -> float:
    """Static power: linear in voltage-frequency per active core."""
    per_core = config.static_base_w + config.static_fv_w * (
        point.freq_ghz * point.voltage
    )
    return per_core * active_cores


def total_power(point: OperatingPoint, ipc: float, active_cores: int,
                config: MachineConfig) -> float:
    return dynamic_power(point, ipc, config) * active_cores + static_power(
        point, active_cores, config
    )


@dataclass
class EnergyBreakdown:
    """Time/energy of one phase or schedule segment.

    ``energy_nj`` is the authoritative total (computed exactly as the
    scheduler's bucket accounting always has); the ``dynamic_nj`` /
    ``static_nj`` / ``transition_nj`` components attribute it.  The
    components sum to ``energy_nj`` up to float rounding — the total is
    never *derived* from them, so bucket roll-ups stay bit-identical to
    :class:`~repro.runtime.scheduler.ScheduleResult` totals.
    """

    time_ns: float = 0.0
    energy_nj: float = 0.0
    dynamic_nj: float = 0.0      # switching energy (Ceff * f * V^2)
    static_nj: float = 0.0       # leakage while executing/idling
    transition_nj: float = 0.0   # static energy burned in DVFS ramps

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.time_ns + other.time_ns,
            self.energy_nj + other.energy_nj,
            self.dynamic_nj + other.dynamic_nj,
            self.static_nj + other.static_nj,
            self.transition_nj + other.transition_nj,
        )

    @property
    def power_w(self) -> float:
        if self.time_ns <= 0.0:
            return 0.0
        return self.energy_nj / self.time_ns  # nJ/ns == W

    def as_dict(self) -> dict:
        return {
            "time_ns": self.time_ns,
            "energy_nj": self.energy_nj,
            "dynamic_nj": self.dynamic_nj,
            "static_nj": self.static_nj,
            "transition_nj": self.transition_nj,
        }


def static_energy(time_ns: float, power_w: float) -> EnergyBreakdown:
    """A static-only stretch (dispatch overhead, sleep) at ``power_w``."""
    energy_nj = power_w * time_ns
    return EnergyBreakdown(
        time_ns=time_ns, energy_nj=energy_nj, static_nj=energy_nj
    )


def phase_energy(time_ns: float, point: OperatingPoint, ipc: float,
                 config: MachineConfig, active_cores: int = 1) -> EnergyBreakdown:
    """Energy of one phase on ``active_cores`` cores (nJ = W * ns)."""
    dynamic_w = dynamic_power(point, ipc, config) * active_cores
    static_w = static_power(point, active_cores, config)
    power = dynamic_w + static_w
    return EnergyBreakdown(
        time_ns=time_ns,
        energy_nj=power * time_ns,
        dynamic_nj=dynamic_w * time_ns,
        static_nj=static_w * time_ns,
    )


def phase_energy_at(terms: PhaseTerms,
                    point: OperatingPoint) -> EnergyBreakdown:
    """One phase at ``point`` on one core, from its frequency terms.

    The scheduler, the optimal-EDP policy and the tuner's phase-local
    searches all cost a phase here, so they agree bit for bit.  The
    EDP-optimal point is costed once, by the scan that picked it: its
    breakdown is served from the terms, so callers must not mutate a
    returned breakdown.
    """
    if point is terms.edp_point:
        return terms.edp_energy
    time_ns = terms.time_ns(point)
    return phase_energy(time_ns, point, terms.ipc(point, time_ns),
                        terms.config)


def transition_energy(config: MachineConfig, point: OperatingPoint,
                      active_cores: int = 1) -> EnergyBreakdown:
    """A DVFS switch: static energy only, no instructions retire.

    "During each DVFS transition we count only the static energy, since
    no instructions are executed." (Section 6.1)
    """
    time_ns = config.dvfs_transition_ns
    power = static_power(point, active_cores, config)
    energy_nj = power * time_ns
    return EnergyBreakdown(
        time_ns=time_ns, energy_nj=energy_nj, transition_nj=energy_nj
    )


def migration_energy(latency_ns: float, point: OperatingPoint,
                     config: MachineConfig,
                     active_cores: int = 1) -> EnergyBreakdown:
    """A cross-cluster thread migration: static energy only.

    Heterogeneous machines replace the DVFS ramp with a migration to a
    core of another type (Weber et al.'s big.LITTLE DAE).  The model
    treats it exactly like a transition — no instructions retire while
    architectural state moves, so only the *destination* core's static
    power burns over the migration latency — and books the energy in
    the ``transition_nj`` component so ledger and attribution roll-ups
    group ramps and migrations together.
    """
    power = static_power(point, active_cores, config)
    energy_nj = power * latency_ns
    return EnergyBreakdown(
        time_ns=latency_ns, energy_nj=energy_nj, transition_nj=energy_nj
    )


def edp(time_ns: float, energy_nj: float) -> float:
    """Energy-delay product in joule-seconds (SI)."""
    return (energy_nj * 1e-9) * (time_ns * 1e-9)
