"""Ehrhart interpolation against a per-call solve.

``interpolate_count`` row-reduces each sample matrix once per
``(number of parameters, degree, base)`` and applies the reduction to
each call's counts.  The oracle here is the per-call construction: a
copy of the Gaussian elimination over ``Fraction``s that fits every
call anew.  Both must give the same polynomial, ``Fraction`` for
``Fraction``, and reject the same inconsistent count vectors.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedral.counting import (
    EhrhartPolynomial,
    _monomials,
    interpolate_count,
)


# -- the per-call oracle ----------------------------------------------------------


def _solve_exact(matrix, rhs):
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
    for r in range(row, n):
        if all(aug[r][c] == 0 for c in range(m)) and aug[r][m] != 0:
            return None
    solution = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        solution[col] = aug[r][m]
    return solution


def _oracle_interpolate(count_at, params, degree, base=3):
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


# -- the comparison ---------------------------------------------------------------


PARAMS = ("N", "M", "K")


def _fit_both(count_at, params, degree, base):
    """Both fits' coefficients, or the error message each raised."""
    outcomes = []
    for fit in (interpolate_count, _oracle_interpolate):
        try:
            poly = fit(count_at, list(params), degree, base)
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            assert poly.params == list(params)
            outcomes.append(poly.coeffs)
    return outcomes


def _assert_same(fast, oracle):
    assert fast == oracle
    if isinstance(oracle, dict):
        for exponents, coeff in oracle.items():
            assert type(fast[exponents]) is Fraction
            assert fast[exponents].as_integer_ratio() \
                == coeff.as_integer_ratio()


@st.composite
def systems(draw):
    num_params = draw(st.integers(0, 3))
    degree = draw(st.integers(0, 3 if num_params < 3 else 2))
    base = draw(st.integers(0, 4))
    return PARAMS[:num_params], degree, base


@settings(max_examples=150, deadline=None)
@given(systems(), st.data())
def test_polynomial_counts_fit_like_the_oracle(system, data):
    """Counts sampled from a polynomial: a consistent system."""
    params, degree, base = system
    monomials = _monomials(len(params), degree)
    coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=len(monomials),
                                max_size=len(monomials)))

    def count_at(values):
        total = 0
        for exponents, c in zip(monomials, coeffs):
            term = c
            for param, e in zip(params, exponents):
                term *= values[param] ** e
            total += term
        return total

    fast, oracle = _fit_both(count_at, params, degree, base)
    assert isinstance(oracle, dict)
    _assert_same(fast, oracle)


@settings(max_examples=150, deadline=None)
@given(systems(), st.lists(st.integers(-1000, 1000), min_size=64,
                           max_size=64))
def test_arbitrary_counts_fit_or_fail_like_the_oracle(system, vector):
    """Arbitrary counts: mostly inconsistent, since the grid has more
    samples than monomials."""
    params, degree, base = system
    counts = iter(vector)
    seen = {}

    def count_at(values):
        key = tuple(values[p] for p in params)
        if key not in seen:
            seen[key] = next(counts)
        return seen[key]

    fast, oracle = _fit_both(count_at, params, degree, base)
    _assert_same(fast, oracle)


def test_inconsistent_counts_raise():
    counts = {3: 0, 4: 1, 5: 4, 6: 100}

    with pytest.raises(ValueError,
                       match="interpolation system is inconsistent"):
        interpolate_count(lambda v: counts[v["N"]], ["N"], 2)


def test_reduction_is_shared_across_calls():
    """One reduction per ``(len(params), degree, base)``, whatever the
    parameter names."""
    from repro.polyhedral.counting import _sample_system

    _sample_system.cache_clear()
    square = interpolate_count(lambda v: v["N"] ** 2, ["N"], 2)
    shifted = interpolate_count(lambda v: v["M"] ** 2 + 1, ["M"], 2)
    assert _sample_system.cache_info().misses == 1
    assert _sample_system.cache_info().hits == 1
    assert square.coeffs == {(2,): 1}
    assert shifted.coeffs == {(2,): 1, (0,): 1}
