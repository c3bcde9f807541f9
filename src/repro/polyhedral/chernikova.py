"""Double description (Chernikova's algorithm): H-rep ↔ V-rep.

This is the core of PolyLib, which the paper uses to manipulate
polyhedra (Section 4).  We implement the classic incremental double
description method with the combinatorial adjacency test and, as
PolyLib does, run it on integers: each input row is scaled to an
integer row, and every line and ray is an integer combination divided
by the gcd of its entries.  The two conversions are built on top:

* :func:`generators` — constraints → (vertices, rays, lines) via the
  homogenization ``{(x, λ) | A·x + b·λ ≥ 0, λ ≥ 0}``;
* :func:`from_generators` — (vertices, rays, lines) → constraints by
  running the same algorithm on the polar cone;
* :func:`convex_union` — hull of a union of polyhedra by pooling their
  generators (Section 5.1.2's "convex union of accesses").
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .affine import AffineExpr, Constraint
from .polyhedron import Polyhedron

Vector = tuple  # tuple[int, ...]; a vertex is tuple[Fraction, ...]


def _dot(a: Vector, b: Vector) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(v) -> Vector:
    """``v`` divided by the gcd of its entries (all-zero ``v`` unchanged)."""
    g = gcd(*v)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def _combine(u: Vector, p: int, w: Vector, q: int) -> Vector:
    """The primitive vector of ``u*p - w*q``; ``u`` itself when ``q == 0``."""
    if not q:
        return u
    return _primitive([x * p - y * q for x, y in zip(u, w)])


class _Ray:
    __slots__ = ("vec", "sat")

    def __init__(self, vec: Vector, sat: frozenset):
        self.vec = _primitive(vec)
        self.sat = sat


def double_description(rows: Sequence[tuple[Vector, bool]], dim: int):
    """Generators (lines, rays) of ``{x | a·x >= 0 (or == 0) for rows}``.

    ``rows`` is a list of ``(coefficient_vector, is_equality)`` with int
    or :class:`Fraction` entries.  Each row is scaled by the LCM of its
    denominators, a positive factor that changes no halfspace, pivot or
    sign.  Returns ``(lines, rays)`` as lists of primitive integer
    vectors (each divided by the gcd of its entries).
    """
    lines: list[Vector] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[_Ray] = []

    for idx, (row, is_eq) in enumerate(rows):
        scale = lcm(*(x.denominator for x in row))
        a = [x.numerator * (scale // x.denominator) for x in row]
        prods = [_dot(a, l) for l in lines]
        pivot = next((i for i, p in enumerate(prods) if p), None)
        if pivot is not None:
            l0 = lines.pop(pivot)
            p0 = prods.pop(pivot)
            if p0 < 0:
                l0 = tuple(-x for x in l0)
                p0 = -p0
            lines = [_combine(l, p0, l0, p) for l, p in zip(lines, prods)]
            for ray in rays:
                ray.vec = _combine(ray.vec, p0, l0, _dot(a, ray.vec))
                ray.sat = ray.sat | {idx}
            if not is_eq:
                rays.append(_Ray(l0, frozenset(range(idx))))
            continue

        pos, neg, zero = [], [], []
        for ray in rays:
            d = _dot(a, ray.vec)
            if d > 0:
                pos.append((ray, d))
            elif d < 0:
                neg.append((ray, d))
            else:
                zero.append(ray)
                ray.sat = ray.sat | {idx}

        new_rays: list[_Ray] = []
        for rp, dp in pos:
            for rn, dn in neg:
                if not _adjacent(rp, rn, rays):
                    continue
                vec = [x * dp - y * dn for x, y in zip(rn.vec, rp.vec)]
                new_rays.append(_Ray(vec, (rp.sat & rn.sat) | {idx}))

        if is_eq:
            rays = zero + new_rays
        else:
            rays = [r for r, _ in pos] + zero + new_rays
        rays = _dedupe(rays)

    return lines, [r.vec for r in rays]


def _adjacent(r1: _Ray, r2: _Ray, rays: list[_Ray]) -> bool:
    common = r1.sat & r2.sat
    for other in rays:
        if other is r1 or other is r2:
            continue
        if common <= other.sat:
            return False
    return True


def _dedupe(rays: list[_Ray]) -> list[_Ray]:
    seen: dict[Vector, _Ray] = {}
    for ray in rays:
        existing = seen.get(ray.vec)
        if existing is None:
            seen[ray.vec] = ray
        else:
            existing.sat = existing.sat | ray.sat
    return list(seen.values())


# -- polyhedron-level conversions ------------------------------------------------


def _constraint_rows(poly: Polyhedron, syms: list[str]):
    """Homogenized rows over (syms..., λ), plus λ >= 0."""
    rows: list[tuple[Vector, bool]] = []
    for con in poly.constraints:
        vec = tuple(con.expr.coeff(s) for s in syms) + (con.expr.const,)
        rows.append((vec, con.is_equality))
    rows.append(((0,) * len(syms) + (1,), False))
    return rows


def generators(poly: Polyhedron):
    """(vertices, rays, lines) of the polyhedron over dims+params.

    Each returned vector is ordered like ``poly.dims + poly.params``.
    Vertices may have rational coordinates (polyhedral, not integer
    hull) and are :class:`Fraction` tuples; rays and lines are primitive
    int tuples.
    """
    syms = list(poly.dims) + list(poly.params)
    rows = _constraint_rows(poly, syms)
    lines, rays = double_description(rows, len(syms) + 1)

    vertices: list[Vector] = []
    recession: list[Vector] = []
    free_lines: list[Vector] = []
    for line in lines:
        if line[-1]:
            # A line with λ-component hides a vertex and a line; split it
            # into two opposite rays for classification.
            rays = rays + [line, tuple(-c for c in line)]
        elif any(line[:-1]):
            free_lines.append(line[:-1])
    for ray in rays:
        x, lam = ray[:-1], ray[-1]
        if lam > 0:
            vertices.append(tuple(Fraction(c, lam) for c in x))
        elif lam == 0 and any(x):
            recession.append(x)  # primitive, as the whole ray is
        # λ < 0 cannot satisfy the λ ≥ 0 row.
    # Dedupe.
    vertices = list(dict.fromkeys(vertices))
    recession = list(dict.fromkeys(recession))
    free_lines = list(dict.fromkeys(free_lines))
    return vertices, recession, free_lines


def from_generators(dims: Sequence[str], vertices: Iterable[Vector],
                    rays: Iterable[Vector] = (), lines: Iterable[Vector] = (),
                    params: Sequence[str] = ()) -> Polyhedron:
    """Constraint representation of conv(vertices) + cone(rays) + span(lines).

    Coordinates are ints or :class:`Fraction` values.
    """
    syms = list(dims) + list(params)
    n = len(syms) + 1
    rows: list[tuple[Vector, bool]] = []
    for v in vertices:
        rows.append((tuple(v) + (1,), False))
    for r in rays:
        rows.append((tuple(r) + (0,), False))
    for l in lines:
        rows.append((tuple(l) + (0,), True))
    if not rows:
        # Empty generator set: the empty polyhedron (0 >= 1).
        return Polyhedron(dims, [Constraint.ge(AffineExpr.constant(-1))], params)

    # Rays of the polar cone are the facets of our cone.
    polar_lines, polar_rays = double_description(rows, n)

    constraints: list[Constraint] = []
    for vec, is_eq in [(v, True) for v in polar_lines] + [
        (v, False) for v in polar_rays
    ]:
        coeffs = {s: vec[i] for i, s in enumerate(syms) if vec[i] != 0}
        const = vec[-1]
        if not coeffs:
            continue  # trivial (covers the λ >= 0 facet)
        constraints.append(
            Constraint(AffineExpr(coeffs, const), is_equality=is_eq)
        )
    return Polyhedron(dims, constraints, params)


def convex_union(polys: Sequence[Polyhedron]) -> Polyhedron:
    """Convex hull of the union (Section 5.1.2), exact over the rationals."""
    if not polys:
        raise ValueError("convex_union of no polyhedra")
    dims = polys[0].dims
    params = list(dict.fromkeys(p for poly in polys for p in poly.params))
    all_vertices: list[Vector] = []
    all_rays: list[Vector] = []
    all_lines: list[Vector] = []
    for poly in polys:
        if poly.dims != dims:
            raise ValueError("convex_union dimension mismatch")
        aligned = Polyhedron(dims, poly.constraints, params)
        v, r, l = generators(aligned)
        all_vertices.extend(v)
        all_rays.extend(r)
        all_lines.extend(l)
    return from_generators(dims, all_vertices, all_rays, all_lines, params)
