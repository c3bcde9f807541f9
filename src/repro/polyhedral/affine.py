"""Exact affine expressions and constraints over named dimensions.

The polyhedral layer works over plain string symbols (dimension and
parameter names) with exact :class:`fractions.Fraction` coefficients.
A :class:`Constraint` is content-normalized to coprime integer
coefficients, so the hot kernels (the double description and the
level walker) read it as an integer row, as PolyLib's do.  The
compiler bridge maps IR induction variables and task arguments onto
these symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Union

Number = Union[int, Fraction]


class AffineExpr:
    """``sum(coeff_i * symbol_i) + constant`` with exact coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Mapping[str, Number]] = None,
                 const: Number = 0):
        self.coeffs: dict[str, Fraction] = {}
        if coeffs:
            for sym, c in coeffs.items():
                frac = Fraction(c)
                if frac != 0:
                    self.coeffs[sym] = frac
        self.const = Fraction(const)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def constant(value: Number) -> "AffineExpr":
        return AffineExpr({}, value)

    @staticmethod
    def symbol(name: str, coeff: Number = 1) -> "AffineExpr":
        return AffineExpr({name: coeff}, 0)

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "AffineExpr | Number") -> "AffineExpr":
        other = _as_expr(other)
        coeffs = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            coeffs[sym] = coeffs.get(sym, Fraction(0)) + c
        return AffineExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({s: -c for s, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "AffineExpr | Number") -> "AffineExpr":
        return self + (-_as_expr(other))

    def __rsub__(self, other: Number) -> "AffineExpr":
        return _as_expr(other) - self

    def __mul__(self, factor: Number) -> "AffineExpr":
        factor = Fraction(factor)
        return AffineExpr(
            {s: c * factor for s, c in self.coeffs.items()}, self.const * factor
        )

    __rmul__ = __mul__

    # -- queries --------------------------------------------------------------------

    def coeff(self, sym: str) -> Fraction:
        return self.coeffs.get(sym, Fraction(0))

    def symbols(self) -> set[str]:
        return set(self.coeffs)

    def drop(self, sym: str) -> "AffineExpr":
        coeffs = {s: c for s, c in self.coeffs.items() if s != sym}
        return AffineExpr(coeffs, self.const)

    def substitute(self, sym: str, replacement: "AffineExpr") -> "AffineExpr":
        c = self.coeff(sym)
        if c == 0:
            return self
        return self.drop(sym) + replacement * c

    def evaluate(self, values: Mapping[str, Number]) -> Fraction:
        total = self.const
        for sym, c in self.coeffs.items():
            if sym not in values:
                raise KeyError("no value for symbol %r" % sym)
            total += c * Fraction(values[sym])
        return total

    def is_integral(self) -> bool:
        return self.const.denominator == 1 and all(
            c.denominator == 1 for c in self.coeffs.values()
        )

    def scaled_to_integer(self) -> "AffineExpr":
        """Multiply by the LCM of denominators (same zero set / sign)."""
        return self * lcm(self.const.denominator,
                          *(c.denominator for c in self.coeffs.values()))

    def content_normalized(self) -> "AffineExpr":
        """Divide an integral expression by the GCD of its coefficients."""
        expr = self.scaled_to_integer()
        g = gcd(expr.const.numerator,
                *(c.numerator for c in expr.coeffs.values()))
        if g > 1:
            return expr * Fraction(1, g)
        return expr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (AffineExpr, int, Fraction)):
            return NotImplemented
        other = _as_expr(other)
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return hash((frozenset(self.coeffs.items()), self.const))

    def __repr__(self) -> str:
        def signed(value: Fraction) -> str:
            return ("+%s" if value >= 0 else "%s") % value

        parts = []
        for sym in sorted(self.coeffs):
            c = self.coeffs[sym]
            if c == 1:
                parts.append("+%s" % sym)
            elif c == -1:
                parts.append("-%s" % sym)
            else:
                parts.append("%s*%s" % (signed(c), sym))
        if self.const != 0 or not parts:
            parts.append(signed(self.const))
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


def _as_expr(value: "AffineExpr | Number") -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.constant(value)


class Constraint:
    """``expr >= 0`` (inequality) or ``expr == 0`` (equality)."""

    __slots__ = ("expr", "is_equality")

    def __init__(self, expr: AffineExpr, is_equality: bool = False):
        self.expr = expr.content_normalized()
        self.is_equality = is_equality

    @staticmethod
    def ge(lhs: AffineExpr, rhs: "AffineExpr | Number" = 0) -> "Constraint":
        return Constraint(lhs - _as_expr(rhs))

    @staticmethod
    def le(lhs: AffineExpr, rhs: "AffineExpr | Number") -> "Constraint":
        return Constraint(_as_expr(rhs) - lhs)

    @staticmethod
    def eq(lhs: AffineExpr, rhs: "AffineExpr | Number" = 0) -> "Constraint":
        return Constraint(lhs - _as_expr(rhs), is_equality=True)

    def satisfied_by(self, values: Mapping[str, Number]) -> bool:
        v = self.expr.evaluate(values)
        return v == 0 if self.is_equality else v >= 0

    def symbols(self) -> set[str]:
        return self.expr.symbols()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return (
            self.is_equality == other.is_equality and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.is_equality))

    def __repr__(self) -> str:
        op = "==" if self.is_equality else ">="
        return "%r %s 0" % (self.expr, op)
