"""Loop-nest generation from polyhedra.

Given a polyhedron over scan dimensions (plus parameters), produce the
minimal-depth rectangularized loop nest that visits exactly its integer
points — the structure the affine access generator turns into prefetch
loops (Listing 1(c) / 2(b) / 3(b) in the paper).

The construction is the textbook one (a simplified CLooG): for each
level, project away all inner dimensions with Fourier–Motzkin and read
the level's lower/upper bounds off the remaining constraints.  Bounds
are ``max``/``min`` lists of affine expressions with a divisor, so
non-unit coefficients become ceil/floor divisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .affine import AffineExpr
from .polyhedron import Polyhedron


@dataclass
class Bound:
    """``expr / divisor`` with ceil (lower) or floor (upper) rounding."""

    expr: AffineExpr
    divisor: int = 1

    def evaluate_lower(self, values: Mapping[str, int]) -> int:
        value = self.expr.evaluate(values)
        quot = value / self.divisor
        import math

        return math.ceil(quot)

    def evaluate_upper(self, values: Mapping[str, int]) -> int:
        value = self.expr.evaluate(values)
        quot = value / self.divisor
        import math

        return math.floor(quot)


@dataclass
class LoopSpec:
    """One loop level: ``for var in max(lowers) ... min(uppers)``."""

    var: str
    lowers: list[Bound] = field(default_factory=list)
    uppers: list[Bound] = field(default_factory=list)

    def range_at(self, values: Mapping[str, int]) -> range:
        lo = max(b.evaluate_lower(values) for b in self.lowers)
        hi = min(b.evaluate_upper(values) for b in self.uppers)
        return range(lo, hi + 1)


@dataclass
class ScanNest:
    """A perfect loop nest scanning a polyhedron, outermost level first."""

    loops: list[LoopSpec]
    params: list[str]

    @property
    def depth(self) -> int:
        return len(self.loops)

    def iterate(self, param_values: Mapping[str, int]):
        """Yield every visited point (for tests), outer-to-inner order."""

        def recurse(level: int, values: dict):
            if level == len(self.loops):
                yield tuple(values[l.var] for l in self.loops)
                return
            spec = self.loops[level]
            for v in spec.range_at(values):
                values[spec.var] = v
                yield from recurse(level + 1, values)
            values.pop(spec.var, None)

        yield from recurse(0, dict(param_values))


class CodegenError(Exception):
    """Raised when a polyhedron cannot be scanned (unbounded dimension)."""


def generate_scan_nest(poly: Polyhedron,
                       order: Sequence[str] | None = None) -> ScanNest:
    """Build the loop nest scanning ``poly``'s integer points.

    ``order`` fixes the loop order (outermost first); by default the
    polyhedron's dimension order is used.
    """
    dims = list(order) if order is not None else list(poly.dims)
    if set(dims) != set(poly.dims):
        raise ValueError("scan order must be a permutation of the dimensions")

    # Project inner dims away, from innermost outwards; level i keeps
    # dims[0..i] and gives the bounds of dims[i].
    levels: list[Polyhedron] = [None] * len(dims)  # type: ignore[list-item]
    working = Polyhedron(dims, poly.constraints, poly.params)
    for level in range(len(dims) - 1, -1, -1):
        levels[level] = working
        working = working.eliminate(dims[level])

    loops: list[LoopSpec] = []
    for level, dim in enumerate(dims):
        spec = LoopSpec(var=dim)
        for con in levels[level].constraints:
            scaled = con.expr.scaled_to_integer()
            coeff = int(scaled.coeff(dim))
            if coeff == 0:
                continue
            rest = scaled.drop(dim)
            # Solving c*dim + rest {>=,==} 0 for dim gives dim = -rest/c;
            # the sign of c decides which side each rounding lands on.
            solved = rest * (Fraction(-1) / coeff) * abs(coeff)
            if coeff > 0 or con.is_equality:
                # dim >= ceil(solved / |c|)
                spec.lowers.append(Bound(solved, abs(coeff)))
            if coeff < 0 or con.is_equality:
                # dim <= floor(solved / |c|)
                spec.uppers.append(Bound(solved, abs(coeff)))
        if not spec.lowers or not spec.uppers:
            raise CodegenError("dimension %r is unbounded" % dim)
        loops.append(spec)
    return ScanNest(loops=loops, params=list(poly.params))
