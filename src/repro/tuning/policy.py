"""The ``tuned`` frequency policy: tuning output as a drop-in policy.

:class:`TunedPolicy` pins the access and execute phases to the pair a
tuning run selected at *schedule level*.  :func:`install_tuned_policy`
re-registers it under the name ``"tuned"`` in the
:class:`~repro.power.frequency.FrequencyPolicy` registry, so every
existing call site that resolves policies by name — the scheduler
harness, the evaluation experiments, the figure sweeps, the CLI — can
consume tuning output with zero changes:

    tune_workload(CGWorkload())                   # installs "tuned"
    schedule(run, Scheme.DAE,                     # ...consumes it
             FrequencyPolicy.from_name("tuned", config), config)

Until something installs a result, ``from_name("tuned")`` raises (the
placeholder registered by :mod:`repro.power.frequency`).
"""

from __future__ import annotations

from ..power.frequency import FrequencyPolicy
from ..sim.config import OperatingPoint
from .search import CandidatePair


class TunedPolicy(FrequencyPolicy):
    """Both phases pinned to a tuned (access, execute) point pair."""

    name = "tuned"

    def __init__(self, access: OperatingPoint, execute: OperatingPoint):
        self.access = access
        self.execute = execute

    def access_point(self, profile, config):
        return self.access

    def execute_point(self, profile, config):
        return self.execute

    @property
    def pair(self) -> CandidatePair:
        return CandidatePair(access=self.access, execute=self.execute)

    @classmethod
    def from_pair(cls, pair: CandidatePair) -> "TunedPolicy":
        return cls(access=pair.access, execute=pair.execute)


def install_tuned_policy(policy: TunedPolicy) -> TunedPolicy:
    """Make ``policy`` what ``FrequencyPolicy.from_name("tuned")``
    returns (overwriting any earlier tuning result)."""
    FrequencyPolicy.register(
        TunedPolicy.name,
        lambda config, _policy=policy: _policy,
    )
    return policy


def _unregister_tuned_for_tests() -> None:
    """Restore the not-installed placeholder (test isolation only)."""
    from ..power.frequency import _tuned_not_installed
    FrequencyPolicy.register(TunedPolicy.name, _tuned_not_installed)
