"""H-representation polyhedra with Fourier–Motzkin projection.

A :class:`Polyhedron` is a conjunction of affine constraints over an
ordered list of *set dimensions* plus free *parameters*.  This is the
workhorse of the affine access analysis: iteration domains, per-
instruction access sets and their projections all live here.
Enumeration, counting and union counting (the paper's ``NOrig``) share
one walker over each polyhedron's Fourier–Motzkin levels, which yields
the innermost integer run of every feasible outer prefix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .affine import AffineExpr, Constraint, Number

#: Default cap on the integer points one polyhedron may hold when counted.
_LIMIT = 2_000_000


class Polyhedron:
    """``{ dims | constraints(dims, params) }``."""

    def __init__(self, dims: Sequence[str], constraints: Iterable[Constraint] = (),
                 params: Sequence[str] = ()):
        self.dims = list(dims)
        self.params = list(params)
        self.constraints: list[Constraint] = []
        seen: set[Constraint] = set()
        for con in constraints:
            extra = con.symbols() - set(self.dims) - set(self.params)
            if extra:
                raise ValueError("constraint mentions unknown symbols %r" % extra)
            if con not in seen:
                seen.add(con)
                self.constraints.append(con)

    # -- basic ops ---------------------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.dims != other.dims:
            raise ValueError("dimension mismatch in intersection")
        params = list(dict.fromkeys(self.params + other.params))
        return Polyhedron(
            self.dims, list(self.constraints) + list(other.constraints), params
        )

    def with_param_values(self, values: Mapping[str, Number]) -> "Polyhedron":
        """Substitute concrete values for (some) parameters."""
        def subst(expr: AffineExpr) -> AffineExpr:
            result = expr
            for sym, value in values.items():
                result = result.substitute(sym, AffineExpr.constant(value))
            return result

        return Polyhedron(
            self.dims,
            [Constraint(subst(c.expr), c.is_equality) for c in self.constraints],
            [p for p in self.params if p not in values],
        )

    def rename_dims(self, mapping: Mapping[str, str]) -> "Polyhedron":
        def rename_expr(expr: AffineExpr) -> AffineExpr:
            return AffineExpr(
                {mapping.get(s, s): c for s, c in expr.coeffs.items()}, expr.const
            )

        return Polyhedron(
            [mapping.get(d, d) for d in self.dims],
            [Constraint(rename_expr(c.expr), c.is_equality) for c in self.constraints],
            [mapping.get(p, p) for p in self.params],
        )

    # -- Fourier–Motzkin ------------------------------------------------------------

    def eliminate(self, sym: str) -> "Polyhedron":
        """Project out one dimension (exact over the rationals)."""
        if sym not in self.dims:
            raise ValueError("%r is not a set dimension" % sym)

        # Prefer substitution through an equality: exact over the integers.
        for con in self.constraints:
            if con.is_equality and con.expr.coeff(sym) != 0:
                c = con.expr.coeff(sym)
                # sym = -(rest)/c
                replacement = (con.expr.drop(sym)) * Fraction(-1, 1) * Fraction(1, c)
                new_constraints = [
                    Constraint(k.expr.substitute(sym, replacement), k.is_equality)
                    for k in self.constraints
                    if k is not con
                ]
                dims = [d for d in self.dims if d != sym]
                return Polyhedron(dims, new_constraints, self.params)

        lowers, uppers, neutral = [], [], []
        for con in self.constraints:
            c = con.expr.coeff(sym)
            if con.is_equality:
                if c != 0:
                    raise AssertionError("equality handled above")
                neutral.append(con)
            elif c > 0:
                lowers.append(con)  # c*sym + rest >= 0  →  sym >= -rest/c
            elif c < 0:
                uppers.append(con)  # sym <= rest/(-c)
            else:
                neutral.append(con)

        new_constraints = list(neutral)
        for lo in lowers:
            for hi in uppers:
                cl = lo.expr.coeff(sym)
                ch = -hi.expr.coeff(sym)
                # cl*sym >= -(lo rest); ch*sym <= (hi rest)
                combined = lo.expr.drop(sym) * ch + hi.expr.drop(sym) * cl
                new_constraints.append(Constraint(combined))
        dims = [d for d in self.dims if d != sym]
        return Polyhedron(dims, new_constraints, self.params)

    def project_onto(self, keep: Sequence[str]) -> "Polyhedron":
        result = self
        for sym in [d for d in self.dims if d not in keep]:
            result = result.eliminate(sym)
        # Restore requested dimension order.
        return Polyhedron(
            [d for d in keep if d in result.dims], result.constraints, result.params
        )

    # -- queries ---------------------------------------------------------------------

    def is_empty(self) -> bool:
        """Rational emptiness via full FM elimination."""
        poly = self
        for sym in list(poly.dims) + list(poly.params):
            if sym in poly.dims:
                poly = poly.eliminate(sym)
            else:
                poly = Polyhedron(
                    list(poly.dims) + [sym], poly.constraints,
                    [p for p in poly.params if p != sym],
                ).eliminate(sym)
        for con in poly.constraints:
            value = con.expr.const
            if con.is_equality and value != 0:
                return True
            if not con.is_equality and value < 0:
                return True
        return False

    def contains(self, point: Mapping[str, Number]) -> bool:
        return all(con.satisfied_by(point) for con in self.constraints)

    def bounds_for(self, sym: str, fixed: Mapping[str, Number]):
        """Integer (lo, hi) range of ``sym`` with every other symbol fixed.

        Returns None when unbounded in either direction or infeasible data.
        """
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for con in self.constraints:
            c = con.expr.coeff(sym)
            if c == 0:
                continue
            rest = con.expr.drop(sym).evaluate(fixed)
            if con.is_equality:
                value = -rest / c
                lo = value if lo is None or value > lo else lo
                hi = value if hi is None or value < hi else hi
            elif c > 0:  # sym >= -rest/c
                value = -rest / c
                lo = value if lo is None or value > lo else lo
            else:  # sym <= rest/(-c)
                value = rest / (-c)
                hi = value if hi is None or value < hi else hi
        if lo is None or hi is None:
            return None
        return math.ceil(lo), math.floor(hi)

    # -- integer points --------------------------------------------------------------

    @cached_property
    def _levels(self) -> list[tuple[str, "Polyhedron", list[Constraint]]]:
        """The FM level stack ``(dims[k], P_k, neutral_k)``, outermost first.

        ``P_k`` is the projection onto ``dims[0..k]`` (inner dimensions
        eliminated innermost first), so it bounds ``dims[k]`` given the
        outer dimensions, and equality-linked dimensions (a diagonal
        access ``s0 == s1``) enumerate correctly.  ``neutral_k`` are the
        constraints of ``P_k`` that do not mention ``dims[k]``.  The stack
        does not depend on parameter values and a polyhedron is never
        changed after ``__init__``, so every count at every Ehrhart sample
        point reuses it.
        """
        levels = []
        working = self
        for k in range(len(self.dims) - 1, -1, -1):
            sym = self.dims[k]
            neutral = [con for con in working.constraints
                       if con.expr.coeff(sym) == 0]
            levels.append((sym, working, neutral))
            if k:
                working = working.eliminate(sym)
        levels.reverse()
        return levels

    def _runs(self, param_values: Mapping[str, Number], limit: int):
        """Yield ``(prefix, lo, hi)``, one innermost integer run per prefix.

        ``prefix`` holds values of ``dims[:-1]`` and the run's points are
        ``prefix + (v,)`` for ``lo <= v <= hi``; runs are non-empty and
        come in lexicographic order.  A zero-dimensional polyhedron has
        one point, the empty tuple, and yields ``((), 0, 0)`` when its
        constraints hold.  At each level the constraints that do not
        mention the level's dimension are checked once for the prefix,
        before its bounds are read; every integer within the bounds
        satisfies the constraints that do mention it.  Raises
        ``ValueError`` when a feasible prefix leaves a dimension
        unbounded, or when the point total exceeds ``limit``.
        """
        fixed = dict(param_values)
        if not self.dims:
            if self.contains(fixed):
                yield (), 0, 0
            return
        levels = self._levels
        innermost = len(levels) - 1
        total = 0

        def walk(k: int, prefix: tuple):
            nonlocal total
            sym, level, neutral = levels[k]
            if not all(con.satisfied_by(fixed) for con in neutral):
                return
            bounds = level.bounds_for(sym, fixed)
            if bounds is None:
                raise ValueError(
                    "dimension %r unbounded during enumeration" % sym
                )
            lo, hi = bounds
            if k == innermost:
                if lo <= hi:
                    total += hi - lo + 1
                    if total > limit:
                        raise ValueError("enumeration exceeded limit")
                    yield prefix, lo, hi
                return
            for v in range(lo, hi + 1):
                fixed[sym] = v
                yield from walk(k + 1, prefix + (v,))
            fixed.pop(sym, None)

        yield from walk(0, ())

    def enumerate_points(self, param_values: Mapping[str, Number],
                         limit: int = _LIMIT):
        """Yield all integer points for fixed parameter values.

        Points are yielded as tuples ordered like ``self.dims``, in
        lexicographic order: each innermost run of the level walker is
        expanded point by point.  Raises ``ValueError`` if the region is
        unbounded or has more than ``limit`` points.
        """
        for prefix, lo, hi in self._runs(param_values, limit):
            if not self.dims:
                yield prefix
                continue
            for v in range(lo, hi + 1):
                yield prefix + (v,)

    def count_points(self, param_values: Mapping[str, Number],
                     limit: int = _LIMIT) -> int:
        """Number of integer points for fixed parameter values.

        Sums the lengths of the level walker's innermost runs, so the
        innermost dimension is never visited point by point.  Raises
        ``ValueError`` like :meth:`enumerate_points`.
        """
        return sum(hi - lo + 1 for _, lo, hi in self._runs(param_values, limit))

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return "{ [%s] : %s }" % (", ".join(self.dims), cons)


def union_count(polys: Sequence[Polyhedron],
                param_values: Mapping[str, Number]) -> int:
    """|P1 ∪ ... ∪ Pn|, merging innermost runs per outer prefix.

    All polyhedra must share the same dimension list.  This is the
    Z-polytope union count the paper uses for ``NOrig`` (Section 5.1.1).
    Each polyhedron is walked once over its cached FM levels; its
    innermost integer runs are grouped by outer prefix, and overlapping
    runs of one prefix are merged before their lengths are summed.
    Raises ``ValueError`` when a polyhedron is unbounded or has more
    points than the :meth:`Polyhedron.count_points` default limit.
    """
    if not polys:
        return 0
    dims = polys[0].dims
    runs: dict[tuple, list[tuple[int, int]]] = {}
    for poly in polys:
        if poly.dims != dims:
            raise ValueError("union_count dimension mismatch")
        for prefix, lo, hi in poly._runs(param_values, _LIMIT):
            runs.setdefault(prefix, []).append((lo, hi))
    total = 0
    for intervals in runs.values():
        covered = -math.inf  # the highest value counted for this prefix
        for lo, hi in sorted(intervals):
            lo = max(lo, covered + 1)
            if lo <= hi:
                total += hi - lo + 1
                covered = hi
    return total


def union_enumerate(polys: Sequence[Polyhedron],
                    param_values: Mapping[str, Number]) -> set:
    """Exact set of integer points in the union (for testing/small sizes)."""
    points: set = set()
    for poly in polys:
        points.update(poly.enumerate_points(param_values))
    return points
