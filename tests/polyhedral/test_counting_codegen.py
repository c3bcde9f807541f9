"""Ehrhart interpolation and loop-nest code generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedral import (
    AffineExpr as E,
    CodegenError,
    Constraint as C,
    Polyhedron,
    count_polynomial,
    counts_dominate,
    generate_scan_nest,
    union_count_polynomial,
)


def param_square():
    i, j, n = E.symbol("i"), E.symbol("j"), E.symbol("N")
    return Polyhedron(["i", "j"], [
        C.ge(i), C.le(i, n - 1), C.ge(j), C.le(j, n - 1),
    ], ["N"])


def param_triangle():
    i, j, n = E.symbol("i"), E.symbol("j"), E.symbol("N")
    return Polyhedron(["i", "j"], [
        C.ge(i), C.le(i, n - 1), C.ge(j - i - 1), C.le(j, n - 1),
    ], ["N"])


class TestEhrhart:
    def test_square_polynomial(self):
        poly = count_polynomial(param_square())
        assert poly.evaluate({"N": 10}) == 100
        assert poly.degree() == 2

    def test_triangle_polynomial(self):
        poly = count_polynomial(param_triangle())
        # N(N-1)/2
        assert poly.evaluate({"N": 10}) == 45
        assert poly.evaluate({"N": 100}) == 4950

    def test_union_polynomial(self):
        upper = param_triangle()
        poly = union_count_polynomial([param_square(), upper])
        assert poly.evaluate({"N": 6}) == 36  # square covers the triangle

    def test_counts_dominate(self):
        square = count_polynomial(param_square())
        triangle = count_polynomial(param_triangle())
        assert counts_dominate(triangle, square)
        assert not counts_dominate(square, triangle)

    def test_threshold_allows_slack(self):
        square = count_polynomial(param_square())
        assert counts_dominate(square, square, threshold=0)
        triangle = count_polynomial(param_triangle())
        # square exceeds triangle by N(N+1)/2; a large enough threshold
        # at the sampled sizes lets it pass.
        assert counts_dominate(square, triangle, threshold=1000, sizes=(4, 8))

    def test_no_params_constant_polynomial(self):
        i = E.symbol("i")
        seg = Polyhedron(["i"], [C.ge(i), C.le(i, 9)])
        poly = count_polynomial(seg)
        assert poly.evaluate({}) == 10


class TestScanNest:
    def test_scan_matches_enumeration_square(self):
        nest = generate_scan_nest(param_square())
        assert set(nest.iterate({"N": 5})) == set(
            param_square().enumerate_points({"N": 5})
        )

    def test_scan_matches_enumeration_triangle(self):
        nest = generate_scan_nest(param_triangle())
        assert set(nest.iterate({"N": 7})) == set(
            param_triangle().enumerate_points({"N": 7})
        )

    def test_scan_respects_order(self):
        nest = generate_scan_nest(param_square(), order=["j", "i"])
        assert [l.var for l in nest.loops] == ["j", "i"]
        points = list(nest.iterate({"N": 3}))
        assert points[0] == (0, 0) and points[1] == (0, 1)

    def test_unbounded_dimension_rejected(self):
        i = E.symbol("i")
        half = Polyhedron(["i"], [C.ge(i)])
        with pytest.raises(CodegenError):
            generate_scan_nest(half)

    def test_divisor_bounds(self):
        # 2i <= N - 1  →  i <= floor((N-1)/2)
        i, n = E.symbol("i"), E.symbol("N")
        poly = Polyhedron(["i"], [C.ge(i), C.ge(n - 1 - i * 2)], ["N"])
        nest = generate_scan_nest(poly)
        assert set(nest.iterate({"N": 8})) == {(0,), (1,), (2,), (3,)}
        assert set(nest.iterate({"N": 9})) == {(0,), (1,), (2,), (3,), (4,)}

    def test_mergeable_same_extents(self):
        a = generate_scan_nest(param_square())
        b = generate_scan_nest(param_square().rename_dims({"i": "x", "j": "y"}))
        # Same bounds after normalization except variable names differ;
        # rename to compare level by level.
        b_renamed = b
        assert a.depth == b_renamed.depth


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 3), st.integers(4, 7),
    st.integers(0, 3), st.integers(4, 7),
)
def test_scan_nest_exactness_property(lo_i, hi_i, lo_j, hi_j):
    """Scanning visits exactly the integer points (hypothesis)."""
    i, j = E.symbol("i"), E.symbol("j")
    poly = Polyhedron(["i", "j"], [
        C.ge(i - lo_i), C.le(i, hi_i),
        C.ge(j - lo_j), C.le(j, hi_j), C.ge(i + j - lo_i - lo_j - 1),
    ])
    nest = generate_scan_nest(poly)
    assert set(nest.iterate({})) == set(poly.enumerate_points({}))
