"""Power/energy/EDP model and frequency-selection policies."""

from .frequency import (
    FixedPolicy,
    FrequencyPolicy,
    MinMaxPolicy,
    OptimalEDPPolicy,
    fixed_policy_at,
    optimal_edp_point,
    phase_edp_at,
)
from .model import (
    EnergyBreakdown,
    dynamic_power,
    edp,
    effective_capacitance,
    phase_energy,
    phase_energy_at,
    static_power,
    total_power,
    transition_energy,
)

__all__ = [
    "FixedPolicy", "FrequencyPolicy", "MinMaxPolicy", "OptimalEDPPolicy",
    "fixed_policy_at", "optimal_edp_point", "phase_edp_at",
    "EnergyBreakdown", "dynamic_power", "edp", "effective_capacitance",
    "phase_energy", "phase_energy_at", "static_power", "total_power",
    "transition_energy",
]
