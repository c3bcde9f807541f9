"""(time, energy) Pareto fronts over candidate schedules.

A scalar objective collapses the time/energy trade-off to one number;
the Pareto front keeps the whole trade-off curve: every candidate no
other candidate beats on *both* axes.  The front across all
policy/point combinations is what a deployment consults to pick an
operating regime — "fastest under this energy budget" is a front
lookup, not a new search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate's position in the (time, energy) plane."""

    time_s: float
    energy_j: float
    label: str = ""

    @property
    def edp_js(self) -> float:
        return self.time_s * self.energy_j


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True when ``a`` is at least as good on both axes and strictly
    better on one."""
    if a.time_s > b.time_s or a.energy_j > b.energy_j:
        return False
    return a.time_s < b.time_s or a.energy_j < b.energy_j


def pareto_front(points: Iterable[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated subset, ascending by time.

    Deterministic: candidates are swept in (time, energy, label) order
    and kept when they strictly lower the best energy seen so far, so
    of several candidates at identical (time, energy) exactly one — the
    lexicographically-first label — survives.
    """
    front: List[ParetoPoint] = []
    best_energy = float("inf")
    for point in sorted(
        points, key=lambda p: (p.time_s, p.energy_j, p.label)
    ):
        if point.energy_j < best_energy:
            front.append(point)
            best_energy = point.energy_j
    return front
