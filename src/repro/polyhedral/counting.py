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

import itertools
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


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over Fractions; returns None if singular."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
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
    # Inconsistency check.
    for r in range(row, n):
        if all(aug[r][c] == 0 for c in range(m)) and aug[r][m] != 0:
            return None
    solution = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        solution[col] = aug[r][m]
    return solution


def interpolate_count(count_at: Callable[[Mapping[str, int]], int],
                      params: Sequence[str], degree: int,
                      base: int = 3) -> EhrhartPolynomial:
    """Fit the counting polynomial by sampling ``count_at`` on a grid.

    ``degree`` should be at least the dimension of the counted set.  The
    grid starts at ``base`` so that small-size degeneracies (empty loops)
    do not distort the fit; callers should validate on extra points.
    """
    monomials = _monomials(len(params), degree)
    grid_side = degree + 2
    sample_points = []
    for combo in itertools.product(range(base, base + grid_side),
                                   repeat=len(params)):
        sample_points.append(dict(zip(params, combo)))
        if len(sample_points) >= len(monomials) + grid_side:
            break
    matrix = []
    rhs = []
    for point in sample_points:
        row = []
        for exponents in monomials:
            term = Fraction(1)
            for param, e in zip(params, exponents):
                term *= Fraction(point[param]) ** e
            row.append(term)
        matrix.append(row)
        rhs.append(Fraction(count_at(point)))
    solution = _solve_exact(matrix, rhs)
    if solution is None:
        raise ValueError("interpolation system is inconsistent")
    return EhrhartPolynomial(params, dict(zip(monomials, solution)))


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
