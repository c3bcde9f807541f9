"""Search strategies over the V/f space.

Three shapes of search, all deterministic and all counting their
evaluations (the currency tuning budgets are measured in):

* :func:`grid_search_point` — exhaustive scan of the discrete operating
  points, ascending by frequency with a strict-improvement update, so
  ties resolve to the lower frequency.  With the ``edp`` objective this
  is exactly the paper's Section 6.1 per-phase search
  (:func:`repro.power.frequency.optimal_edp_point`).
* :func:`golden_section` — derivative-free minimization on the
  *continuous* V/f line (:func:`interpolate_point` linearly interpolates
  the voltage between neighbouring discrete points), for objectives that
  are unimodal in f — EDP's U-shape.  Converges in ~log(range/tol)
  evaluations instead of one per grid point.
* :func:`coordinate_descent` — greedy alternating minimization over the
  joint (access-point, execute-point) pair.  Meant to be driven by a
  *schedule-level* evaluator (full :meth:`DAEScheduler.run`, transition
  energy included), where the phase-local optimum is no longer optimal.

Strategies receive an ``evaluate`` callable and never touch the
scheduler or the power model themselves; the tuner wires them to
memoized, persistently cached evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.config import MachineConfig, OperatingPoint

#: Strategy names accepted by :func:`~repro.tuning.tuner.tune_workload`
#: (``all`` runs every one and keeps the overall winner).
STRATEGIES = ("phase-local", "exhaustive", "golden", "descent")

#: 1/phi, the golden-section interval reduction per iteration.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CandidatePair:
    """One joint (access, execute) operating-point candidate."""

    access: OperatingPoint
    execute: OperatingPoint

    @property
    def key(self) -> Tuple[float, float]:
        """Stable identity: the (access, execute) frequencies in GHz."""
        return (self.access.freq_ghz, self.execute.freq_ghz)


@dataclass
class SearchOutcome:
    """What a strategy found and what it cost.

    ``evaluations`` counts *distinct* evaluator calls (memoized repeats
    are free by construction); ``history`` records every first-time
    evaluation in order, for reports and regression tests.
    """

    strategy: str
    best_value: float
    evaluations: int
    best_point: Optional[OperatingPoint] = None
    best_pair: Optional[CandidatePair] = None
    #: Continuous argmin frequency (golden-section only).
    best_freq_ghz: Optional[float] = None
    history: List[tuple] = field(default_factory=list)


def sorted_points(
    points: Sequence[OperatingPoint],
) -> Tuple[OperatingPoint, ...]:
    """Operating points ascending by frequency (the canonical order
    every strategy scans in)."""
    return tuple(sorted(points, key=lambda p: p.freq_ghz))


def nearest_point(freq_ghz: float,
                  points: Sequence[OperatingPoint]) -> OperatingPoint:
    """The discrete point nearest ``freq_ghz`` (ties resolve low)."""
    return min(
        sorted_points(points),
        key=lambda p: (round(abs(p.freq_ghz - freq_ghz) * 1e6), p.freq_ghz),
    )


def interpolate_point(freq_ghz: float, config: MachineConfig) -> OperatingPoint:
    """An operating point on the continuous V/f line.

    The voltage is linearly interpolated between the two discrete
    points bracketing ``freq_ghz`` — exactly the shape
    :func:`~repro.sim.config.sandybridge_operating_points` assumes, so
    interpolating at a discrete frequency returns its exact voltage.
    """
    points = sorted_points(config.operating_points)
    lo, hi = points[0], points[-1]
    if not (lo.freq_ghz - 1e-9 <= freq_ghz <= hi.freq_ghz + 1e-9):
        raise ValueError(
            "frequency %.3f GHz outside the V/f line %.1f-%.1f GHz"
            % (freq_ghz, lo.freq_ghz, hi.freq_ghz)
        )
    for a, b in zip(points, points[1:]):
        if freq_ghz <= b.freq_ghz + 1e-9:
            span = b.freq_ghz - a.freq_ghz
            t = 0.0 if span <= 0 else (freq_ghz - a.freq_ghz) / span
            t = min(1.0, max(0.0, t))
            return OperatingPoint(
                freq_ghz=freq_ghz,
                voltage=a.voltage + (b.voltage - a.voltage) * t,
            )
    return hi


def grid_search_point(evaluate: Callable[[OperatingPoint], float],
                      points: Sequence[OperatingPoint]) -> SearchOutcome:
    """Exhaustive scan of the discrete points; ties resolve to the
    lower frequency (ascending scan, strict-improvement update)."""
    outcome = SearchOutcome(
        strategy="grid", best_value=float("inf"), evaluations=0
    )
    ordered = sorted_points(points)
    for point in ordered:
        value = evaluate(point)
        outcome.evaluations += 1
        outcome.history.append((point.freq_ghz, value))
        if value < outcome.best_value:
            outcome.best_value = value
            outcome.best_point = point
    if outcome.best_point is None:
        # Everything infeasible: fall back to the cheapest point.
        outcome.best_point = ordered[0]
    return outcome


def grid_search_pair(evaluate: Callable[[CandidatePair], float],
                     points: Sequence[OperatingPoint]) -> SearchOutcome:
    """Exhaustive scan of every (access, execute) pair, lexicographically
    ascending, strict-improvement update (ties resolve to the lowest
    access frequency, then the lowest execute frequency)."""
    outcome = SearchOutcome(
        strategy="exhaustive", best_value=float("inf"), evaluations=0
    )
    ordered = sorted_points(points)
    for access in ordered:
        for execute in ordered:
            pair = CandidatePair(access=access, execute=execute)
            value = evaluate(pair)
            outcome.evaluations += 1
            outcome.history.append((pair.key, value))
            if value < outcome.best_value:
                outcome.best_value = value
                outcome.best_pair = pair
    if outcome.best_pair is None:
        # Everything infeasible: fall back to the cheapest pair.
        outcome.best_pair = CandidatePair(ordered[0], ordered[0])
    return outcome


def golden_section(evaluate: Callable[[float], float], lo: float, hi: float,
                   tol_ghz: float = 0.01,
                   max_iterations: int = 64) -> SearchOutcome:
    """Golden-section minimization of a unimodal ``evaluate`` on
    ``[lo, hi]`` GHz, to a bracket width of ``tol_ghz``.

    Returns the best *sampled* frequency (never an unevaluated
    midpoint), so ``best_value`` is always a value the evaluator
    actually produced.
    """
    if hi < lo:
        raise ValueError("empty interval [%g, %g]" % (lo, hi))
    outcome = SearchOutcome(
        strategy="golden", best_value=float("inf"), evaluations=0
    )

    def probe(x: float) -> float:
        value = evaluate(x)
        outcome.evaluations += 1
        outcome.history.append((x, value))
        if value < outcome.best_value:
            outcome.best_value = value
            outcome.best_freq_ghz = x
        return value

    a, b = lo, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = probe(c), probe(d)
    for _ in range(max_iterations):
        if b - a <= tol_ghz:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = probe(d)
    # The endpoints can win on monotone objectives the bracket never
    # sampled (golden section only probes interior points).
    probe(lo)
    probe(hi)
    if outcome.best_freq_ghz is None:
        # Everything infeasible: fall back to the lower bound.
        outcome.best_freq_ghz = lo
    return outcome


def coordinate_descent(evaluate: Callable[[CandidatePair], float],
                       points: Sequence[OperatingPoint],
                       seed: CandidatePair,
                       max_rounds: int = 16) -> SearchOutcome:
    """Alternating minimization over the (access, execute) pair.

    Each round scans the access coordinate (execute held fixed), then
    the execute coordinate, accepting strictly-better moves only; the
    descent stops at the first round with no move.  Distinct candidates
    are evaluated once (memoized), so ``evaluations`` measures real
    work and a round that rediscovers known pairs costs nothing.

    Monotonicity: the running best only improves, so seeding with a
    baseline guarantees the outcome is never worse than the seed.
    """
    ordered = sorted_points(points)
    outcome = SearchOutcome(
        strategy="descent", best_value=float("inf"), evaluations=0
    )
    memo: dict = {}

    def probe(pair: CandidatePair) -> float:
        if pair.key in memo:
            return memo[pair.key]
        value = evaluate(pair)
        memo[pair.key] = value
        outcome.evaluations += 1
        outcome.history.append((pair.key, value))
        return value

    current = seed
    best_value = probe(current)
    for _ in range(max_rounds):
        moved = False
        for coordinate in ("access", "execute"):
            if coordinate == "access":
                scan = [CandidatePair(point, current.execute)
                        for point in ordered]
            else:
                scan = [CandidatePair(current.access, point)
                        for point in ordered]
            for candidate in scan:
                value = probe(candidate)
                if value < best_value:
                    best_value = value
                    current = candidate
                    moved = True
        if not moved:
            break
    outcome.best_value = best_value
    outcome.best_pair = current
    return outcome
