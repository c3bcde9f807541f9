"""The integer polyhedral kernels against their specifications.

``double_description`` and the Fourier–Motzkin level walker behind
``count_points``, ``enumerate_points`` and ``union_count`` run on Python
ints.  The hull side is checked against the rational algorithm kept
here as an oracle, a copy of the ``Fraction`` double description: every
hull must come out with the same constraints in the same order, since
the access-phase loops are generated from that order.  The walker is
checked against a brute-force ``contains`` filter over a bounding box,
and its errors against a copy of the rational walker.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedral import (
    AffineExpr as E,
    Constraint as C,
    Polyhedron,
    convex_union,
    generators,
    union_count,
)


# -- the rational oracle ----------------------------------------------------------


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _scale(v, f):
    return tuple(x * f for x in v)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _normalize(v):
    """Divide by the GCD of numerators / LCM of denominators."""
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = math.gcd(*ints)
    if g == 0:
        return tuple(Fraction(0) for _ in v)
    return tuple(Fraction(x, g) for x in ints)


class _Ray:
    def __init__(self, vec, sat):
        self.vec = _normalize(vec)
        self.sat = sat


def _adjacent(r1, r2, rays):
    common = r1.sat & r2.sat
    return not any(common <= other.sat for other in rays
                   if other is not r1 and other is not r2)


def _dedupe(rays):
    seen = {}
    for ray in rays:
        existing = seen.get(ray.vec)
        if existing is None:
            seen[ray.vec] = ray
        else:
            existing.sat = existing.sat | ray.sat
    return list(seen.values())


def oracle_double_description(rows, dim):
    lines = [tuple(Fraction(1 if i == j else 0) for j in range(dim))
             for i in range(dim)]
    rays = []
    for idx, (a, is_eq) in enumerate(rows):
        prods = [_dot(a, l) for l in lines]
        pivot = next((i for i, p in enumerate(prods) if p != 0), None)
        if pivot is not None:
            l0 = lines.pop(pivot)
            p0 = prods[pivot]
            if p0 < 0:
                l0 = _scale(l0, Fraction(-1))
                p0 = -p0
            lines = [_normalize(_sub(l, _scale(l0, _dot(a, l) / p0)))
                     for l in lines]
            for ray in rays:
                shift = _dot(a, ray.vec) / p0
                ray.vec = _normalize(_sub(ray.vec, _scale(l0, shift)))
                ray.sat = ray.sat | {idx}
            if not is_eq:
                rays.append(_Ray(l0, frozenset(range(idx))))
            continue
        pos = [r for r in rays if _dot(a, r.vec) > 0]
        neg = [r for r in rays if _dot(a, r.vec) < 0]
        zero = [r for r in rays if _dot(a, r.vec) == 0]
        for r in zero:
            r.sat = r.sat | {idx}
        new_rays = []
        for rp in pos:
            dp = _dot(a, rp.vec)
            for rn in neg:
                if not _adjacent(rp, rn, rays):
                    continue
                dn = _dot(a, rn.vec)
                vec = _sub(_scale(rn.vec, dp), _scale(rp.vec, dn))
                new_rays.append(_Ray(vec, (rp.sat & rn.sat) | {idx}))
        rays = _dedupe((zero if is_eq else pos + zero) + new_rays)
    return lines, [r.vec for r in rays]


def oracle_generators(poly):
    syms = list(poly.dims) + list(poly.params)
    rows = [(tuple(con.expr.coeff(s) for s in syms) + (con.expr.const,),
             con.is_equality) for con in poly.constraints]
    rows.append((tuple([Fraction(0)] * len(syms)) + (Fraction(1),), False))
    lines, rays = oracle_double_description(rows, len(syms) + 1)
    vertices, recession, free_lines = [], [], []
    for line in lines:
        x, lam = line[:-1], line[-1]
        if lam != 0:
            rays = rays + [line, _scale(line, Fraction(-1))]
        elif any(c != 0 for c in x):
            free_lines.append(tuple(x))
    for ray in rays:
        x, lam = ray[:-1], ray[-1]
        if lam > 0:
            vertices.append(tuple(c / lam for c in x))
        elif lam == 0 and any(c != 0 for c in x):
            recession.append(_normalize(tuple(x)))
    return (list(dict.fromkeys(vertices)), list(dict.fromkeys(recession)),
            list(dict.fromkeys(free_lines)))


def oracle_from_generators(dims, vertices, rays, lines, params):
    syms = list(dims) + list(params)
    rows = [(tuple(Fraction(c) for c in v) + (Fraction(1),), False)
            for v in vertices]
    rows += [(tuple(Fraction(c) for c in r) + (Fraction(0),), False)
             for r in rays]
    rows += [(tuple(Fraction(c) for c in l) + (Fraction(0),), True)
             for l in lines]
    if not rows:
        return Polyhedron(dims, [C.ge(E.constant(-1))], params)
    polar_lines, polar_rays = oracle_double_description(rows, len(syms) + 1)
    constraints = []
    for vec, is_eq in ([(v, True) for v in polar_lines]
                       + [(v, False) for v in polar_rays]):
        coeffs = {s: vec[i] for i, s in enumerate(syms) if vec[i] != 0}
        if coeffs:
            constraints.append(C(E(coeffs, vec[-1]), is_equality=is_eq))
    return Polyhedron(dims, constraints, params)


def oracle_convex_union(polys):
    dims = polys[0].dims
    params = list(dict.fromkeys(p for poly in polys for p in poly.params))
    pooled = ([], [], [])
    for poly in polys:
        for into, got in zip(pooled, oracle_generators(
                Polyhedron(dims, poly.constraints, params))):
            into.extend(got)
    return oracle_from_generators(dims, *pooled, params)


def oracle_runs(poly, values, limit):
    """The rational walker: every level's bounds as Fractions, then
    ``ceil``/``floor``."""
    fixed = dict(values)
    if not poly.dims:
        if poly.contains(fixed):
            yield (), 0, 0
        return
    levels, working = [], poly
    for k in range(len(poly.dims) - 1, -1, -1):
        levels.append((poly.dims[k], working))
        if k:
            working = working.eliminate(poly.dims[k])
    levels.reverse()
    total = 0

    def walk(k, prefix):
        nonlocal total
        sym, level = levels[k]
        if not all(con.satisfied_by(fixed) for con in level.constraints
                   if con.expr.coeff(sym) == 0):
            return
        lo = hi = None
        for con in level.constraints:
            c = con.expr.coeff(sym)
            if c == 0:
                continue
            value = -con.expr.drop(sym).evaluate(fixed) / c
            if con.is_equality or c > 0:
                lo = value if lo is None else max(lo, value)
            if con.is_equality or c < 0:
                hi = value if hi is None else min(hi, value)
        if lo is None or hi is None:
            raise ValueError("dimension %r unbounded during enumeration" % sym)
        lo, hi = math.ceil(lo), math.floor(hi)
        if k == len(levels) - 1:
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


# -- random polyhedra -------------------------------------------------------------

#: Boxed dimensions stay within [LOW, HIGH] (parameters at most 3).
LOW, HIGH = -2, 7


@st.composite
def unions(draw, params=("N", "M"), boxed_only=False):
    """1-4 polyhedra over 1-3 dimensions and 0-2 parameters: most
    dimensions boxed, plus up to three random constraints, a quarter of
    them equalities."""
    dims = ["i", "j", "k"][:draw(st.integers(1, 3))]
    params = list(params[:draw(st.integers(0, len(params)))])
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        cons = []
        for d in dims:
            if boxed_only or draw(st.integers(0, 4)):
                var = E.symbol(d)
                cons.append(C.ge(var - draw(st.integers(LOW, 2))))
                upper = E.constant(draw(st.integers(-1, 4)))
                for p in params:
                    upper = upper + E.symbol(p) * draw(st.integers(0, 1))
                cons.append(C.le(var, upper))
        for _ in range(draw(st.integers(0, 3))):
            expr = E({s: draw(st.integers(-3, 3)) for s in dims + params},
                     draw(st.integers(-4, 4)))
            cons.append(C.eq(expr) if draw(st.integers(0, 3)) == 0
                        else C.ge(expr))
        polys.append(Polyhedron(dims, cons, params))
    values = {p: draw(st.integers(0, 3)) for p in params}
    return polys, values


def _outcome(thunk):
    try:
        return thunk()
    except ValueError as exc:
        return ("ValueError", str(exc))


def brute_force(poly, values):
    """Every integer point of ``poly`` in the box, lexicographically."""
    box = range(LOW, HIGH + 1)
    return [point for point in itertools.product(box, repeat=len(poly.dims))
            if poly.contains({**values, **dict(zip(poly.dims, point))})]


# -- double description -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(unions())
def test_convex_union_matches_rational_oracle(case):
    polys, _ = case
    for poly in polys:
        assert generators(poly) == oracle_generators(poly)
    hull, want = convex_union(polys), oracle_convex_union(polys)
    assert (hull.dims, hull.params) == (want.dims, want.params)
    assert hull.constraints == want.constraints   # order included


def test_generators_types():
    i, j, n = E.symbol("i"), E.symbol("j"), E.symbol("N")
    triangle = Polyhedron(["i", "j"], [C.ge(2 * i), C.le(i, n - 1),
                                       C.ge(j - i - 1), C.le(j, n - 1)],
                          ["N"])
    vertices, rays, lines = generators(triangle)
    assert (vertices, rays, lines) == oracle_generators(triangle)
    assert all(type(c) is Fraction for v in vertices for c in v)
    assert rays and all(type(c) is int for r in rays for c in r)


# -- the level walker ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(unions(params=("N",), boxed_only=True))
def test_walker_matches_brute_force(case):
    polys, values = case
    union = set()
    for poly in polys:
        points = brute_force(poly, values)
        union.update(points)
        assert list(poly.enumerate_points(values)) == points
        assert poly.count_points(values) == len(points)
    assert union_count(polys, values) == len(union)


@settings(max_examples=150, deadline=None)
@given(unions(params=("N",)))
def test_walker_matches_rational_walker(case):
    """Unbounded dimensions included: the same runs, or the same
    error."""
    polys, values = case
    for poly in polys:
        for limit in (10, 2_000_000):
            assert _outcome(lambda: list(poly._runs(values, limit))) == \
                _outcome(lambda: list(oracle_runs(poly, values, limit)))


def test_zero_dimensional_rows():
    poly = Polyhedron([], [C.ge(E.symbol("N") - 5),
                           C.eq(E.symbol("M") - 2 * E.symbol("N"))],
                      ["N", "M"])
    assert poly.count_points({"N": 5, "M": 10}) == 1
    assert poly.count_points({"N": 5, "M": 11}) == 0
    assert poly.count_points({"N": 4, "M": 8}) == 0


def test_equality_bounds_round_inward():
    i, j = E.symbol("i"), E.symbol("j")
    # 2j == i: only even i have a j; -2j == -i is the same set.
    for eq in (C.eq(2 * j - i), C.eq(i - 2 * j)):
        poly = Polyhedron(["i", "j"], [C.ge(i + 3), C.le(i, 3), eq])
        assert list(poly.enumerate_points({})) == [(-2, -1), (0, 0), (2, 1)]


class TestErrors:
    def test_unbounded_dimension(self):
        i, j = E.symbol("i"), E.symbol("j")
        wedge = Polyhedron(["i", "j"], [C.ge(i), C.le(i, 2), C.ge(j - i)])
        message = "dimension 'j' unbounded during enumeration"
        with pytest.raises(ValueError, match=message):
            wedge.count_points({})
        with pytest.raises(ValueError, match=message):
            list(wedge.enumerate_points({}))
        with pytest.raises(ValueError, match=message):
            union_count([wedge], {})
        half = Polyhedron(["i", "j"], [C.le(i, 2), C.ge(j), C.le(j, 1)])
        with pytest.raises(ValueError, match="dimension 'i' unbounded"):
            half.count_points({})

    def test_point_limit(self):
        i, j = E.symbol("i"), E.symbol("j")
        square = Polyhedron(["i", "j"], [C.ge(i), C.le(i, 1500),
                                         C.ge(j), C.le(j, 1500)])
        message = "enumeration exceeded limit"
        with pytest.raises(ValueError, match=message):
            square.count_points({}, limit=10)
        with pytest.raises(ValueError, match=message):
            list(square.enumerate_points({}, limit=10))
        with pytest.raises(ValueError, match=message):
            union_count([square], {})
