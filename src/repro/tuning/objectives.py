"""Tuning objectives: what "best frequency" means.

Every objective maps an evaluated candidate — a whole
:class:`~repro.runtime.scheduler.ScheduleResult`, or one phase at one
operating point — to a scalar where **lower is better**.  Constrained
objectives (minimum energy under a deadline, minimum delay under a
power cap — the classic DVFS frequency-selection problems of Rizvandi
et al.) report infeasible candidates as ``inf`` so every search
strategy handles constraints uniformly.

Objectives are pluggable through a small registry mirroring
:meth:`repro.power.frequency.FrequencyPolicy.register`:

* plain names — ``edp``, ``ed2p``, ``energy``, ``delay``;
* parameterized names — ``energy-under-deadline@<seconds>`` and
  ``delay-under-power-cap@<watts>``, parsed by :meth:`Objective.from_name`.

The ``edp`` objective's phase-local arithmetic is intentionally
bit-for-bit identical to :func:`repro.power.frequency.phase_edp_at`, so
a grid search with it reproduces :class:`OptimalEDPPolicy` exactly.
"""

from __future__ import annotations

from typing import Callable

from ..power.model import phase_energy_at
from ..runtime.scheduler import ScheduleResult
from ..sim.config import MachineConfig, OperatingPoint
from ..sim.timing import PhaseProfile

#: plain name -> zero-argument factory.
_OBJECTIVE_REGISTRY: dict[str, Callable[[], "Objective"]] = {}

#: base name -> factory(arg) for ``<name>@<float>`` spellings.
_PARAM_OBJECTIVES: dict[str, Callable[[float], "Objective"]] = {}


class Objective:
    """Scalarizes a candidate's (time, energy); lower is better."""

    name = "abstract"

    def score(self, time_s: float, energy_j: float) -> float:
        """The scalar to minimize, in SI units."""
        raise NotImplementedError

    def feasible(self, time_s: float, energy_j: float) -> bool:
        """Whether the candidate satisfies the objective's constraint."""
        return True

    def evaluate(self, time_s: float, energy_j: float) -> float:
        """Constraint-aware score: ``inf`` for infeasible candidates."""
        if not self.feasible(time_s, energy_j):
            return float("inf")
        return self.score(time_s, energy_j)

    def value(self, result: ScheduleResult) -> float:
        """Evaluate one scheduled run."""
        return self.evaluate(result.time_s, result.energy_j)

    def phase_value(self, profile: PhaseProfile, point: OperatingPoint,
                    config: MachineConfig) -> float:
        """Phase-local evaluation: one phase at one operating point,
        costed with the paper's power model (single core, no
        transitions) — the search space of Section 6.1's exhaustive
        per-phase search."""
        breakdown = phase_energy_at(profile.terms(config), point)
        return self.evaluate(breakdown.time_ns * 1e-9,
                             breakdown.energy_nj * 1e-9)

    @property
    def spec(self) -> str:
        """The ``from_name`` spelling that reproduces this objective."""
        return self.name

    # -- registry --------------------------------------------------------------

    @staticmethod
    def register(name: str, factory: Callable[[], "Objective"]) -> None:
        """Register ``factory`` under a plain ``name``; re-registering
        overwrites (same contract as ``FrequencyPolicy.register``)."""
        _OBJECTIVE_REGISTRY[name.lower()] = factory

    @staticmethod
    def register_parameterized(name: str,
                               factory: Callable[[float], "Objective"],
                               ) -> None:
        """Register a factory for ``<name>@<float>`` spellings."""
        _PARAM_OBJECTIVES[name.lower()] = factory

    @classmethod
    def from_name(cls, spec: str) -> "Objective":
        """Instantiate an objective from its name.

        Built-in names: ``edp``, ``ed2p``, ``energy``, ``delay``,
        ``energy-under-deadline@<seconds>``,
        ``delay-under-power-cap@<watts>``.
        """
        key = spec.lower()
        factory = _OBJECTIVE_REGISTRY.get(key)
        if factory is not None:
            return factory()
        base, sep, arg = key.partition("@")
        if sep:
            param_factory = _PARAM_OBJECTIVES.get(base)
            if param_factory is not None:
                try:
                    bound = float(arg)
                except ValueError:
                    raise ValueError(
                        "objective %r needs a numeric bound after '@'; "
                        "got %r" % (base, arg)
                    ) from None
                if bound <= 0:
                    raise ValueError(
                        "objective %r needs a positive bound, got %g"
                        % (base, bound)
                    )
                return param_factory(bound)
        raise ValueError(
            "unknown objective %r; registered: %s"
            % (spec, ", ".join(sorted(
                set(_OBJECTIVE_REGISTRY)
                | {"%s@<bound>" % n for n in _PARAM_OBJECTIVES}
            )))
        )

    @staticmethod
    def registered_names() -> tuple:
        return tuple(sorted(_OBJECTIVE_REGISTRY))


class EnergyObjective(Objective):
    """Minimize total energy (joules)."""

    name = "energy"

    def score(self, time_s, energy_j):
        return energy_j


class DelayObjective(Objective):
    """Minimize total time (seconds)."""

    name = "delay"

    def score(self, time_s, energy_j):
        return time_s


class EDPObjective(Objective):
    """Minimize the energy-delay product (the paper's Section 6.1
    criterion).  Arithmetic matches :func:`phase_edp_at` bit-for-bit."""

    name = "edp"

    def score(self, time_s, energy_j):
        return energy_j * time_s


class ED2PObjective(Objective):
    """Minimize ED²P — weighs delay harder, the classic
    performance-leaning compromise."""

    name = "ed2p"

    def score(self, time_s, energy_j):
        return energy_j * time_s * time_s


class EnergyUnderDeadline(Objective):
    """Minimize energy subject to ``time <= deadline`` (seconds)."""

    name = "energy-under-deadline"

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s

    def score(self, time_s, energy_j):
        return energy_j

    def feasible(self, time_s, energy_j):
        return time_s <= self.deadline_s

    @property
    def spec(self) -> str:
        return "%s@%g" % (self.name, self.deadline_s)


class DelayUnderPowerCap(Objective):
    """Minimize time subject to ``average power <= cap`` (watts)."""

    name = "delay-under-power-cap"

    def __init__(self, cap_w: float):
        self.cap_w = cap_w

    def score(self, time_s, energy_j):
        return time_s

    def feasible(self, time_s, energy_j):
        if time_s <= 0.0:
            return True
        return energy_j / time_s <= self.cap_w

    @property
    def spec(self) -> str:
        return "%s@%g" % (self.name, self.cap_w)


def resolve_objective(objective) -> Objective:
    """Coerce a name or an :class:`Objective` instance to an instance."""
    if isinstance(objective, Objective):
        return objective
    if isinstance(objective, str):
        return Objective.from_name(objective)
    raise ValueError("unknown objective specifier %r" % (objective,))


Objective.register("energy", EnergyObjective)
Objective.register("delay", DelayObjective)
Objective.register("edp", EDPObjective)
Objective.register("ed2p", ED2PObjective)
Objective.register_parameterized("energy-under-deadline", EnergyUnderDeadline)
Objective.register_parameterized("delay-under-power-cap", DelayUnderPowerCap)
