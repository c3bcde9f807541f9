"""Polyhedron operations: FM projection, emptiness, enumeration, unions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedral import AffineExpr as E, Constraint as C, Polyhedron
from repro.polyhedral import from_generators, union_count, union_enumerate


def box(lo_i, hi_i, lo_j, hi_j, params=()):
    i, j = E.symbol("i"), E.symbol("j")
    return Polyhedron(
        ["i", "j"],
        [C.ge(i - lo_i), C.le(i, hi_i), C.ge(j - lo_j), C.le(j, hi_j)],
        params,
    )


class TestEnumeration:
    def test_box_count(self):
        assert box(0, 3, 0, 2).count_points({}) == 12

    def test_triangle_count(self):
        i, j = E.symbol("i"), E.symbol("j")
        tri = Polyhedron(["i", "j"], [
            C.ge(i), C.le(i, 4), C.ge(j), C.le(j, i),
        ])
        assert tri.count_points({}) == 15  # 1+2+3+4+5

    def test_parametric_count(self):
        i = E.symbol("i")
        n = E.symbol("N")
        line = Polyhedron(["i"], [C.ge(i), C.le(i, n - 1)], ["N"])
        assert line.count_points({"N": 7}) == 7

    def test_equality_linked_dims(self):
        i, j = E.symbol("i"), E.symbol("j")
        diag = Polyhedron(["i", "j"], [
            C.ge(i), C.le(i, 5), C.eq(i - j),
        ])
        points = sorted(diag.enumerate_points({}))
        assert points == [(k, k) for k in range(6)]

    def test_empty_range_yields_nothing(self):
        assert box(3, 2, 0, 1).count_points({}) == 0

    def test_unbounded_raises(self):
        i = E.symbol("i")
        half = Polyhedron(["i"], [C.ge(i)])
        with pytest.raises(ValueError):
            list(half.enumerate_points({}))

    def test_enumeration_limit(self):
        with pytest.raises(ValueError):
            box(0, 1000, 0, 1000).count_points({}, limit=10)


class TestProjection:
    def test_eliminate_inner_dim(self):
        tri = Polyhedron(["i", "j"], [
            C.ge(E.symbol("i")), C.le(E.symbol("i"), 4),
            C.ge(E.symbol("j") - E.symbol("i")), C.le(E.symbol("j"), 6),
        ])
        proj = tri.eliminate("j")
        assert proj.dims == ["i"]
        assert proj.count_points({}) == 5

    def test_projection_is_shadow(self):
        poly = box(1, 4, 2, 5)
        proj = poly.project_onto(["i"])
        assert sorted(p[0] for p in proj.enumerate_points({})) == [1, 2, 3, 4]

    def test_equality_substitution_exact(self):
        i, j = E.symbol("i"), E.symbol("j")
        poly = Polyhedron(["i", "j"], [
            C.eq(j - i * 2), C.ge(i), C.le(i, 3),
        ])
        proj = poly.eliminate("i")
        values = sorted(p[0] for p in proj.enumerate_points({}))
        # j = 2i, rationally the projection is the interval [0, 6]
        assert values[0] == 0 and values[-1] == 6


class TestEmptiness:
    def test_contradiction_detected(self):
        i = E.symbol("i")
        poly = Polyhedron(["i"], [C.ge(i - 5), C.le(i, 3)])
        assert poly.is_empty()

    def test_feasible_not_empty(self):
        assert not box(0, 3, 0, 3).is_empty()

    def test_parametric_emptiness_is_rational(self):
        i = E.symbol("i")
        n = E.symbol("N")
        poly = Polyhedron(["i"], [C.ge(i - n), C.le(i, n)], ["N"])
        assert not poly.is_empty()  # i == N works for any N

    def test_infeasible_equalities(self):
        i = E.symbol("i")
        poly = Polyhedron(["i"], [C.eq(i - 1), C.eq(i - 2)])
        assert poly.is_empty()


class TestUnions:
    def test_union_count_disjoint(self):
        a, b = box(0, 1, 0, 1), box(5, 6, 5, 6)
        assert union_count([a, b], {}) == 8

    def test_union_count_overlapping(self):
        a, b = box(0, 2, 0, 2), box(1, 3, 1, 3)
        # 9 + 9 - 4 overlap
        assert union_count([a, b], {}) == 14

    def test_union_count_matches_enumeration(self):
        a, b, c = box(0, 2, 0, 2), box(2, 4, 1, 3), box(1, 3, 2, 5)
        assert union_count([a, b, c], {}) == len(union_enumerate([a, b, c], {}))

    def test_param_substitution(self):
        i = E.symbol("i")
        n = E.symbol("N")
        poly = Polyhedron(["i"], [C.ge(i), C.le(i, n)], ["N"])
        fixed = poly.with_param_values({"N": 4})
        assert fixed.params == []
        assert fixed.count_points({}) == 5


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
)
def test_union_count_inclusion_exclusion_property(
    a1, a2, b1, b2, c1, c2, d1, d2,
):
    """Inclusion-exclusion equals direct enumeration on random boxes."""
    p = box(min(a1, a2), max(a1, a2), min(b1, b2), max(b1, b2))
    q = box(min(c1, c2), max(c1, c2), min(d1, d2), max(d1, d2))
    assert union_count([p, q], {}) == len(union_enumerate([p, q], {}))


class TestDegenerateCounts:
    def test_zero_dimensional_infeasible_counts_zero(self):
        poly = Polyhedron([], [C.ge(E.constant(-1))])
        assert poly.is_empty()
        assert poly.count_points({}) == 0
        assert list(poly.enumerate_points({})) == []
        assert union_count([poly], {}) == 0

    def test_zero_dimensional_parametric(self):
        poly = Polyhedron([], [C.ge(E.symbol("N") - 5)], ["N"])
        assert poly.count_points({"N": 2}) == 0
        assert list(poly.enumerate_points({"N": 2})) == []
        assert union_count([poly, poly], {"N": 2}) == 0
        assert poly.count_points({"N": 5}) == 1
        assert list(poly.enumerate_points({"N": 5})) == [()]
        assert union_count([poly, poly], {"N": 5}) == 1

    def test_parameter_only_constraint_gates_outer_level(self):
        i, n = E.symbol("i"), E.symbol("N")
        poly = Polyhedron(["i"], [C.ge(i), C.le(i, 3), C.ge(n - 5)], ["N"])
        assert poly.count_points({"N": 2}) == 0
        assert union_count([poly], {"N": 2}) == 0
        assert poly.count_points({"N": 5}) == 4

    def test_empty_generator_set_counts_zero(self):
        empty = from_generators(["i"], [])
        assert empty.count_points({}) == 0
        assert list(empty.enumerate_points({})) == []
        line = Polyhedron(["i"], [C.ge(E.symbol("i")), C.le(E.symbol("i"), 3)])
        assert union_count([empty, line], {}) == 4

    def test_feasible_unbounded_prefix_still_raises(self):
        i, j = E.symbol("i"), E.symbol("j")
        wedge = Polyhedron(["i", "j"], [C.ge(i), C.le(i, 2), C.ge(j - i)])
        with pytest.raises(ValueError):
            wedge.count_points({})
        with pytest.raises(ValueError):
            union_count([box(0, 1, 0, 1), wedge], {})

    def test_union_limit_is_per_polyhedron(self):
        # Each member holds 1.02M points, under the 2M default limit;
        # their union holds more than it.
        a, b = box(0, 1009, 0, 1009), box(1010, 2019, 0, 1009)
        assert union_count([a, b], {}) == 2 * 1010 * 1010
        with pytest.raises(ValueError):
            union_count([box(0, 1500, 0, 1500)], {})


@st.composite
def random_unions(draw):
    """1-5 polyhedra over 1-3 dimensions and a parameter ``N``, with
    equalities, coefficients in [-2, 2] and some empty members."""
    dims = ["i", "j", "k"][:draw(st.integers(1, 3))]
    coeff = st.integers(-2, 2)
    polys = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 9)) == 0:
            polys.append(from_generators(dims, [], params=["N"]))
            continue
        cons = []
        for d in dims:
            if draw(st.integers(0, 9)):  # box most dimensions
                var = E.symbol(d)
                cons.append(C.ge(var - draw(coeff)))
                upper = E.symbol("N") * draw(st.integers(0, 1)) \
                    + draw(st.integers(-1, 3))
                cons.append(C.le(var, upper))
        for _ in range(draw(st.integers(0, 3))):
            expr = E({s: draw(coeff) for s in dims + ["N"]},
                     draw(st.integers(-3, 3)))
            equality = draw(st.integers(0, 4)) == 0
            cons.append(C.eq(expr) if equality else C.ge(expr))
        polys.append(Polyhedron(dims, cons, ["N"]))
    return polys, {"N": draw(st.integers(0, 4))}


def _outcome(thunk):
    try:
        return thunk()
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(random_unions())
def test_run_counts_match_enumeration_property(case):
    """Counting by innermost runs equals enumerating the points, and
    both raise ``ValueError`` together."""
    polys, values = case
    assert _outcome(lambda: union_count(polys, values)) == _outcome(
        lambda: len(union_enumerate(polys, values))
    )
    for poly in polys:
        points = _outcome(lambda: list(poly.enumerate_points(values)))
        count = _outcome(lambda: poly.count_points(values))
        if points is ValueError:
            assert count is ValueError
            continue
        assert count == len(points)
        assert points == sorted(points)
        assert all(poly.contains({**values, **dict(zip(poly.dims, p))})
                   for p in points)
