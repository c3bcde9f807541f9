"""Frequency selection policies (Section 3.1).

Two DAE policies from the paper plus the coupled baselines:

* ``naive`` (Min/Max f): access phase at fmin, execute phase at fmax;
* ``optimal EDP``: per-phase exhaustive search over operating points
  using the power model ("since the focus of this work is to demonstrate
  the potential of DAE, we perform an exhaustive search to select the
  optimal frequency in terms of EDP" — Section 6.1);
* coupled fixed-f and coupled optimal-f for the CAE baselines.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.config import MachineConfig, OperatingPoint
from ..sim.timing import PhaseProfile
from .model import edp, phase_energy_at


def phase_edp_at(profile: PhaseProfile, point: OperatingPoint,
                 config: MachineConfig) -> float:
    """Local EDP of one phase at one operating point."""
    breakdown = phase_energy_at(profile.terms(config), point)
    return edp(breakdown.time_ns, breakdown.energy_nj)


def optimal_edp_point(profile: PhaseProfile,
                      config: MachineConfig) -> OperatingPoint:
    """Exhaustive search for the phase-local EDP-optimal frequency.

    Ties are broken toward the *lower-frequency* point (the cheaper
    voltage), and the scan runs over the points sorted by frequency, so
    the choice is deterministic regardless of how
    ``config.operating_points`` happens to be ordered.  The search runs
    once per phase and timing-and-power model: its choice and the
    choice's energy are kept on the phase's terms, which every config
    of that model shares.  The point returned is always one of
    ``config``'s own table.
    """
    terms = profile.terms(config)
    table = terms.config.operating_points
    if terms.edp_point is None:
        best: Optional[OperatingPoint] = None
        best_energy = None
        best_edp = float("inf")
        for point in sorted(table, key=lambda p: p.freq_ghz):
            breakdown = phase_energy_at(terms, point)
            value = edp(breakdown.time_ns, breakdown.energy_nj)
            if value < best_edp:
                best_edp, best, best_energy = value, point, breakdown
        assert best is not None
        terms.edp_point, terms.edp_energy = best, best_energy
    if config.operating_points is table:
        return terms.edp_point
    # The terms were built under an equal config made on its own: the
    # same point, from this config's table.
    return config.operating_points[table.index(terms.edp_point)]


#: name -> factory(config) for :meth:`FrequencyPolicy.from_name`.
_POLICY_REGISTRY: dict[str, Callable[[MachineConfig], "FrequencyPolicy"]] = {}

#: base name -> factory(config, arg) for parameterized names such as
#: ``fixed@2.4`` (everything after the ``@`` is passed as ``arg``).
_PARAM_REGISTRY: dict[str, Callable[[MachineConfig, str], "FrequencyPolicy"]] = {}


class FrequencyPolicy:
    """Chooses operating points for the access and execute phases."""

    name = "abstract"

    def access_point(self, profile: PhaseProfile,
                     config: MachineConfig) -> OperatingPoint:
        raise NotImplementedError

    def execute_point(self, profile: PhaseProfile,
                      config: MachineConfig) -> OperatingPoint:
        raise NotImplementedError

    # -- registry --------------------------------------------------------------

    @staticmethod
    def register(name: str,
                 factory: Callable[[MachineConfig], "FrequencyPolicy"],
                 ) -> None:
        """Register ``factory`` under ``name`` for :meth:`from_name`.

        Re-registering a name overwrites it (useful for experiments
        that want to ablate a policy without touching call sites).
        """
        _POLICY_REGISTRY[name.lower()] = factory

    @staticmethod
    def register_parameterized(
        name: str,
        factory: Callable[[MachineConfig, str], "FrequencyPolicy"],
    ) -> None:
        """Register a factory for ``<name>@<arg>`` spellings.

        :meth:`from_name` splits on the first ``@`` and passes the
        remainder as the factory's string argument (e.g. ``fixed@2.4``
        calls the ``fixed`` factory with ``"2.4"``).
        """
        _PARAM_REGISTRY[name.lower()] = factory

    @classmethod
    def from_name(cls, name: str,
                  config: Optional[MachineConfig] = None) -> "FrequencyPolicy":
        """Instantiate a registered policy by name.

        Built-in names: ``minmax``, ``optimal``, ``fmax``, ``fmin``,
        ``fixed@<ghz>`` (both phases pinned to the operating point
        nearest ``<ghz>``; out-of-range frequencies are an error), and
        ``tuned`` (the schedule-level pair installed by
        :func:`repro.tuning.tune_workload`; an error until a tuning
        run has installed one).
        """
        key = name.lower()
        factory = _POLICY_REGISTRY.get(key)
        if factory is not None:
            return factory(config or MachineConfig())
        base, sep, arg = key.partition("@")
        if sep:
            param_factory = _PARAM_REGISTRY.get(base)
            if param_factory is not None:
                return param_factory(config or MachineConfig(), arg)
        raise ValueError(
            "unknown policy %r; registered: %s"
            % (name, ", ".join(sorted(
                set(_POLICY_REGISTRY)
                | {"%s@<arg>" % n for n in _PARAM_REGISTRY}
            )))
        )

    @staticmethod
    def registered_names() -> tuple:
        return tuple(sorted(_POLICY_REGISTRY))


class MinMaxPolicy(FrequencyPolicy):
    """Naive: lowest frequency for access, highest for execute."""

    name = "minmax"

    def access_point(self, profile, config):
        return config.fmin

    def execute_point(self, profile, config):
        return config.fmax


class OptimalEDPPolicy(FrequencyPolicy):
    """Per-phase locally-EDP-optimal frequencies via exhaustive search."""

    name = "optimal"

    def access_point(self, profile, config):
        return optimal_edp_point(profile, config)

    def execute_point(self, profile, config):
        return optimal_edp_point(profile, config)


class FixedPolicy(FrequencyPolicy):
    """Both phases at one fixed operating point (coupled baselines)."""

    name = "fixed"

    def __init__(self, point: OperatingPoint):
        self.point = point

    def access_point(self, profile, config):
        return self.point

    def execute_point(self, profile, config):
        return self.point


def fixed_policy_at(freq_ghz: float, config: MachineConfig) -> FixedPolicy:
    """A :class:`FixedPolicy` at the operating point nearest ``freq_ghz``.

    The frequency must fall inside the machine's DVFS range (CAE fixed-f
    baselines below fmin or above fmax would be meaningless); within the
    range it snaps to the nearest point, preferring the lower frequency
    when exactly between two.
    """
    points = sorted(config.operating_points, key=lambda p: p.freq_ghz)
    lo, hi = points[0].freq_ghz, points[-1].freq_ghz
    if not (lo - 1e-9 <= freq_ghz <= hi + 1e-9):
        raise ValueError(
            "fixed frequency %.3f GHz outside the DVFS range %.1f-%.1f GHz"
            % (freq_ghz, lo, hi)
        )
    # The snap itself (nearest point, midpoint ties resolve to the
    # lower frequency) is MachineConfig.point_for's contract; sharing
    # it keeps the policy and the table in permanent agreement.
    return FixedPolicy(config.point_for(freq_ghz))


def _fixed_from_arg(config: MachineConfig, arg: str) -> FixedPolicy:
    try:
        freq_ghz = float(arg)
    except ValueError:
        raise ValueError(
            "fixed@ needs a frequency in GHz, e.g. 'fixed@2.4'; got %r" % arg
        ) from None
    return fixed_policy_at(freq_ghz, config)


def _fixed_needs_frequency(config: MachineConfig) -> "FrequencyPolicy":
    raise ValueError(
        "policy 'fixed' needs a frequency: use 'fixed@<ghz>' "
        "(e.g. 'fixed@2.4'), or 'fmin'/'fmax' for the range endpoints"
    )


def _tuned_not_installed(config: MachineConfig) -> "FrequencyPolicy":
    raise ValueError(
        "policy 'tuned' has no tuning result installed; run "
        "repro.tuning.tune_workload() or "
        "'python -m repro.evaluation tune <app>' first"
    )


FrequencyPolicy.register("minmax", lambda config: MinMaxPolicy())
FrequencyPolicy.register("optimal", lambda config: OptimalEDPPolicy())
FrequencyPolicy.register("fmax", lambda config: FixedPolicy(config.fmax))
FrequencyPolicy.register("fmin", lambda config: FixedPolicy(config.fmin))
FrequencyPolicy.register("fixed", _fixed_needs_frequency)
FrequencyPolicy.register_parameterized("fixed", _fixed_from_arg)
#: Placeholder: :mod:`repro.tuning` re-registers "tuned" with the
#: concrete pair once a tuning run has produced one.
FrequencyPolicy.register("tuned", _tuned_not_installed)
