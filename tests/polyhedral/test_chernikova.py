"""Double description: generators, H↔V round trips, convex union."""

from hypothesis import given, settings, strategies as st

from repro.polyhedral import (
    AffineExpr as E,
    Constraint as C,
    Polyhedron,
    convex_union,
    from_generators,
    generators,
)


def box(lo_i, hi_i, lo_j, hi_j):
    i, j = E.symbol("i"), E.symbol("j")
    return Polyhedron(["i", "j"], [
        C.ge(i - lo_i), C.le(i, hi_i), C.ge(j - lo_j), C.le(j, hi_j),
    ])


class TestGenerators:
    def test_square_vertices(self):
        v, rays, lines = generators(box(0, 2, 0, 2))
        assert rays == [] and lines == []
        got = {tuple(map(int, p)) for p in v}
        assert got == {(0, 0), (0, 2), (2, 0), (2, 2)}

    def test_triangle_vertices(self):
        i, j = E.symbol("i"), E.symbol("j")
        tri = Polyhedron(["i", "j"], [C.ge(i), C.ge(j), C.le(i + j, 3)])
        v, rays, lines = generators(tri)
        got = {tuple(map(int, p)) for p in v}
        assert got == {(0, 0), (3, 0), (0, 3)}

    def test_halfline_has_ray(self):
        i = E.symbol("i")
        half = Polyhedron(["i"], [C.ge(i - 2)])
        v, rays, lines = generators(half)
        assert [tuple(map(int, p)) for p in v] == [(2,)]
        assert rays and int(rays[0][0]) > 0

    def test_full_line_detected(self):
        i, j = E.symbol("i"), E.symbol("j")
        strip = Polyhedron(["i", "j"], [C.ge(j), C.le(j, 1)])
        v, rays, lines = generators(strip)
        # i is unconstrained: either a line or two opposite rays.
        directions = [tuple(r) for r in rays] + [tuple(l) for l in lines]
        assert any(d[0] != 0 for d in directions)

    def test_parametric_polyhedron_has_param_rays(self):
        i = E.symbol("i")
        n = E.symbol("N")
        line = Polyhedron(["i"], [C.ge(i), C.le(i, n - 1)], ["N"])
        v, rays, lines = generators(line)
        assert rays  # growth direction along (i, N)


class TestRoundTrip:
    def check_roundtrip(self, poly, sample_params=None):
        sample_params = sample_params or {}
        v, rays, lines = generators(poly)
        back = from_generators(poly.dims, v, rays, lines, poly.params)
        want = set(poly.enumerate_points(sample_params))
        got = set(back.enumerate_points(sample_params))
        assert want == got

    def test_box_roundtrip(self):
        self.check_roundtrip(box(1, 4, 2, 5))

    def test_triangle_roundtrip(self):
        i, j = E.symbol("i"), E.symbol("j")
        tri = Polyhedron(["i", "j"], [C.ge(i), C.ge(j - i), C.le(j, 4)])
        self.check_roundtrip(tri)

    def test_roundtrip_removes_redundant_constraints(self):
        i = E.symbol("i")
        redundant = Polyhedron(["i"], [
            C.ge(i), C.le(i, 5), C.le(i, 9), C.le(i, 100),
        ])
        v, rays, lines = generators(redundant)
        back = from_generators(["i"], v, rays, lines)
        assert len(back.constraints) == 2

    def test_empty_generator_set_is_empty_polyhedron(self):
        empty = from_generators(["i"], [], [], [])
        assert empty.is_empty()


class TestConvexUnion:
    def test_hull_of_two_squares(self):
        hull = convex_union([box(0, 1, 0, 1), box(4, 5, 4, 5)])
        assert hull.count_points({}) == 16

    def test_hull_contains_both_inputs(self):
        a, b = box(0, 2, 0, 1), box(1, 3, 2, 4)
        hull = convex_union([a, b])
        for poly in (a, b):
            for point in poly.enumerate_points({}):
                assert hull.contains(dict(zip(hull.dims, point)))

    def test_hull_of_one_is_itself(self):
        a = box(0, 3, 1, 2)
        hull = convex_union([a])
        assert set(hull.enumerate_points({})) == set(a.enumerate_points({}))

    def test_parametric_hull(self):
        i, j, n = E.symbol("i"), E.symbol("j"), E.symbol("N")
        lower = Polyhedron(["i", "j"], [
            C.ge(i), C.le(i, n - 1), C.ge(j), C.le(j, i),
        ], ["N"])
        upper = Polyhedron(["i", "j"], [
            C.ge(i), C.le(i, n - 1), C.ge(j - i), C.le(j, n - 1),
        ], ["N"])
        hull = convex_union([lower, upper])
        # Together the triangles cover the square at any size.
        assert hull.count_points({"N": 5}) == 25


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4),
              st.integers(0, 4), st.integers(0, 4)),
    min_size=1, max_size=3,
))
def test_hull_superset_property(boxes):
    """The hull of random boxes contains every box point (hypothesis)."""
    polys = [
        box(min(a, b), max(a, b), min(c, d), max(c, d))
        for a, b, c, d in boxes
    ]
    hull = convex_union(polys)
    union_points = set()
    for poly in polys:
        union_points.update(poly.enumerate_points({}))
    hull_points = set(hull.enumerate_points({}))
    assert union_points <= hull_points
