"""Parametric integer-point counting (Ehrhart interpolation).

The paper (Section 5.1.1) counts the points of the original access sets
(``NOrig``, a union of Z-polytopes) and of their convex union
(``NconvUn``) with Ehrhart polynomials, and only scans the hull when
``NconvUn <= NOrig (+ threshold)``.

We reproduce that with the classic interpolation construction: the count
of integer points in a parametric polytope whose vertices are affine in
the parameters is a (quasi-)polynomial in the parameters; for the access
sets produced by the workloads it is a plain polynomial, so evaluating
the count at a grid of parameter values and solving for the monomial
coefficients recovers the closed form exactly.  Each sample is an exact
integer count (:meth:`Polyhedron.count_points`, :func:`union_count`)
that sums innermost integer runs over the polyhedron's Fourier–Motzkin
levels; the levels are computed once per polyhedron, so all sample
points share them.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .polyhedron import Polyhedron, union_count


class EhrhartPolynomial:
    """A polynomial in the parameters, with exact rational coefficients."""

    def __init__(self, params: Sequence[str],
                 coeffs: Mapping[tuple, Fraction]):
        self.params = list(params)
        self.coeffs = {
            exp: Fraction(c) for exp, c in coeffs.items() if c != 0
        }

    def evaluate(self, values: Mapping[str, int]) -> Fraction:
        total = Fraction(0)
        for exponents, coeff in self.coeffs.items():
            term = coeff
            for param, e in zip(self.params, exponents):
                term *= Fraction(values[param]) ** e
            total += term
        return total

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exponents in sorted(self.coeffs, reverse=True):
            coeff = self.coeffs[exponents]
            factors = []
            if coeff != 1 or not any(exponents):
                factors.append(str(coeff))
            for param, e in zip(self.params, exponents):
                if e == 1:
                    factors.append(param)
                elif e > 1:
                    factors.append("%s^%d" % (param, e))
            parts.append("*".join(factors))
        return " + ".join(parts)


def _monomials(num_params: int, degree: int):
    """All exponent tuples with total degree <= degree."""
    result = []
    for exps in itertools.product(range(degree + 1), repeat=num_params):
        if sum(exps) <= degree:
            result.append(exps)
    return result


@functools.lru_cache(maxsize=None)
def _sample_system(num_params: int, degree: int, base: int):
    """The sample grid of :func:`interpolate_count` and its elimination.

    The sample matrix depends only on the number of parameters, the
    degree and the grid base, and Gauss-Jordan elimination picks its
    pivots from the matrix alone, so eliminating the matrix once beside
    an identity block yields the linear map ``T`` that elimination
    applies to any count vector.  Returns ``(monomials, points,
    solution_rows, check_rows)``: ``solution_rows`` pairs each pivot
    monomial with its row of ``T``, and the counts are inconsistent
    unless every ``check_rows`` row of ``T`` maps them to 0.  A row is
    ``(integers, denominator)``, so applying it is an integer dot
    product.  Everything returned is immutable, since every caller with
    the same key shares it; the keys in use are a handful.
    """
    monomials = _monomials(num_params, degree)
    grid_side = degree + 2
    points = []
    for combo in itertools.product(range(base, base + grid_side),
                                   repeat=num_params):
        points.append(combo)
        if len(points) >= len(monomials) + grid_side:
            break
    n, m = len(points), len(monomials)
    aug = [
        [Fraction(math.prod(x ** e for x, e in zip(point, exponents)))
         for exponents in monomials]
        + [Fraction(int(i == j)) for j in range(n)]
        for i, point in enumerate(points)
    ]
    pivots = []
    row = 0
    for col in range(m):
        pivot = next(
            (r for r in range(row, n) if aug[r][col] != 0), None
        )
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        factor = aug[row][col]
        aug[row] = [x / factor for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break

    def integer_row(r):
        transform = aug[r][m:]
        den = math.lcm(*(x.denominator for x in transform))
        return tuple(int(x * den) for x in transform), den

    solution_rows = tuple((monomials[col], integer_row(r))
                          for r, col in enumerate(pivots))
    check_rows = tuple(integer_row(r) for r in range(row, n)
                       if all(aug[r][c] == 0 for c in range(m)))
    return tuple(monomials), tuple(points), solution_rows, check_rows


def interpolate_count(count_at: Callable[[Mapping[str, int]], int],
                      params: Sequence[str], degree: int,
                      base: int = 3) -> EhrhartPolynomial:
    """Fit the counting polynomial by sampling ``count_at`` on a grid.

    ``degree`` should be at least the dimension of the counted set.  The
    grid starts at ``base`` so that small-size degeneracies (empty loops)
    do not distort the fit; callers should validate on extra points.
    """
    monomials, points, solution_rows, check_rows = _sample_system(
        len(params), degree, base
    )
    counts = [count_at(dict(zip(params, point))) for point in points]

    def apply(row):
        integers, den = row
        return Fraction(sum(a * c for a, c in zip(integers, counts)), den)

    if any(apply(row) for row in check_rows):
        raise ValueError("interpolation system is inconsistent")
    coeffs = dict.fromkeys(monomials, Fraction(0))
    for exponents, row in solution_rows:
        coeffs[exponents] = apply(row)
    return EhrhartPolynomial(params, coeffs)


def count_polynomial(poly: Polyhedron, degree: int | None = None,
                     base: int = 3) -> EhrhartPolynomial:
    """Ehrhart polynomial of one polyhedron's integer-point count."""
    if degree is None:
        degree = len(poly.dims)
    return interpolate_count(
        lambda values: poly.count_points(values), poly.params, degree, base
    )


def union_count_polynomial(polys: Sequence[Polyhedron],
                           degree: int | None = None,
                           base: int = 3) -> EhrhartPolynomial:
    """Ehrhart polynomial of |P1 ∪ ... ∪ Pn| (the paper's NOrig).

    The parameter-aligned polyhedra are built once, outside the sampled
    count, so every sample point reuses their Fourier–Motzkin levels.
    """
    if not polys:
        return EhrhartPolynomial([], {})
    if degree is None:
        degree = len(polys[0].dims)
    params = list(dict.fromkeys(p for poly in polys for p in poly.params))
    aligned = [Polyhedron(p.dims, p.constraints, params) for p in polys]
    return interpolate_count(
        lambda values: union_count(aligned, values), params, degree, base
    )


def counts_dominate(smaller: EhrhartPolynomial, larger: EhrhartPolynomial,
                    threshold: int = 0, sizes: Sequence[int] = (4, 8, 16, 32)) -> bool:
    """True when ``smaller(p) - threshold <= larger(p)`` across sample sizes.

    This implements the paper's hull-acceptance test
    ``NconvUn - th <= NOrig``: both polynomials are compared on a sweep
    of parameter values (all parameters set to each size in ``sizes``).
    """
    params = smaller.params or larger.params
    for size in sizes:
        values = {p: size for p in params}
        if smaller.evaluate(values) - threshold > larger.evaluate(values):
            return False
    return True
