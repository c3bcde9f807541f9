"""``repro.tuning`` — DVFS auto-tuning over the paper's simulator.

The paper (Section 6.1) picks each phase's frequency by exhaustive
per-phase EDP search.  This subsystem generalizes that in three
directions:

* **objectives** — what to minimize is pluggable (energy, delay, EDP,
  ED²P, energy under a deadline, delay under a power cap);
* **strategies** — how to search is pluggable (per-phase grid,
  golden-section on the continuous V/f line, coordinate descent over
  the joint access/execute pair);
* **level** — candidates are scored on the *whole schedule* (work
  stealing, DVFS transitions, idle tails included), not phase-by-phase
  in isolation.

:func:`tune_workload` drives it end to end and installs the winner as
the ``"tuned"`` frequency policy, consumable anywhere a policy name is
accepted.  See ``DESIGN.md`` §10.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "objectives": ("DelayObjective", "DelayUnderPowerCap", "ED2PObjective",
                   "EDPObjective", "EnergyObjective", "EnergyUnderDeadline",
                   "Objective", "resolve_objective"),
    "pareto": ("ParetoPoint", "dominates", "front_from_schedules",
               "pareto_front"),
    "policy": ("TunedPolicy", "install_tuned_policy"),
    "search": ("STRATEGIES", "CandidatePair", "SearchOutcome",
               "coordinate_descent", "golden_section", "grid_search_pair",
               "grid_search_point", "interpolate_point", "nearest_point",
               "sorted_points"),
    "tuner": ("StrategySummary", "TuningCandidate", "TuningResult",
              "TuningStats", "pair_label", "tune_workload"),
})
