"""Power/energy/EDP model and frequency-selection policies."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "frequency": ("FixedPolicy", "FrequencyPolicy", "MinMaxPolicy",
                  "OptimalEDPPolicy", "fixed_policy_at", "optimal_edp_point",
                  "phase_edp_at"),
    "model": ("EnergyBreakdown", "dynamic_power", "edp",
              "effective_capacitance", "phase_energy", "phase_energy_at",
              "static_power", "total_power", "transition_energy"),
})
