"""Bridging forms between IR linear expressions and polyhedral objects.

The scalar-evolution layer describes element indices as linear forms
over IR values (induction-variable phis and integer arguments).  The
polyhedral layer wants named dimensions with integer coefficients.  This
module holds the two bridge structures:

* :class:`SymbolTable` — assigns stable names to IVs and parameters;
* :class:`IndexForm` — an element-index expression over *names*,
  allowing parameter products as strides (``i*N + j``), used when
  emitting prefetch address computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from ...analysis.scalar_evolution import LinearExpr
from ...ir import Phi, Value
from ...polyhedral.affine import AffineExpr


class FormError(Exception):
    """Raised when an IR linear form has no polyhedral counterpart."""


class SymbolTable:
    """Names for induction variables and parameters of one task."""

    def __init__(self):
        self._iv_names: dict[int, str] = {}
        self._params: dict[str, Value] = {}
        self._counter = 0

    def iv_name(self, phi: Phi) -> str:
        name = self._iv_names.get(id(phi))
        if name is None:
            name = "iv%d" % self._counter
            self._counter += 1
            self._iv_names[id(phi)] = name
        return name

    def param_name(self, value: Value) -> str:
        if not value.name:
            raise FormError("parameter value has no name: %r" % value)
        existing = self._params.get(value.name)
        if existing is not None and existing is not value:
            raise FormError("parameter name collision on %r" % value.name)
        self._params[value.name] = value
        return value.name

    def param_value(self, name: str) -> Value:
        return self._params[name]

    @property
    def params(self) -> dict[str, Value]:
        return dict(self._params)


def linear_to_affine(expr: LinearExpr, symtab: SymbolTable) -> AffineExpr:
    """Convert a pure-affine linear form to a polyhedral expression.

    Pure-affine means: every IV term has an empty parameter monomial and
    every parameter term has degree one.  Parameter *products* (which
    appear as strides before delinearization) raise :class:`FormError`.
    """
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    for (iv, mono), coeff in expr.terms.items():
        if iv is not None:
            if mono:
                raise FormError(
                    "induction variable with symbolic coefficient: %r" % expr
                )
            name = symtab.iv_name(iv)
            coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
        elif len(mono) == 0:
            const += coeff
        elif len(mono) == 1:
            name = symtab.param_name(mono[0])
            coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
        else:
            raise FormError("parameter product in affine position: %r" % expr)
    return AffineExpr(coeffs, const)


@dataclass(frozen=True)
class IndexTerm:
    """``coeff * product(params) * [scan_var]`` (scan_var optional)."""

    coeff: int
    params: tuple  # tuple[str, ...] sorted
    scan_var: Optional[str] = None


@dataclass
class IndexForm:
    """An element index over scan variables and parameters.

    Unlike :class:`AffineExpr`, coefficients may be parameter products
    (array strides), which is exactly what re-linearizing a subscript
    vector requires: ``index = sum_d subscript_d * stride_d``.
    """

    terms: list[IndexTerm] = field(default_factory=list)

    @staticmethod
    def from_subscripts(subscripts: list[AffineExpr],
                        strides: list[tuple]) -> "IndexForm":
        """Combine per-dimension subscripts with their strides."""
        if len(subscripts) != len(strides):
            raise ValueError("subscript/stride arity mismatch")
        terms: list[IndexTerm] = []
        for expr, stride in zip(subscripts, strides):
            stride_names = tuple(sorted(stride))
            for sym, coeff in expr.coeffs.items():
                if coeff.denominator != 1:
                    raise FormError("fractional subscript coefficient")
                terms.append(IndexTerm(int(coeff), stride_names, sym))
            if expr.const != 0:
                if expr.const.denominator != 1:
                    raise FormError("fractional subscript constant")
                terms.append(IndexTerm(int(expr.const), stride_names, None))
        return IndexForm(_combine(terms))

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = 0
        for term in self.terms:
            product = term.coeff
            for p in term.params:
                product *= values[p]
            if term.scan_var is not None:
                product *= values[term.scan_var]
            total += product
        return total

    def canonical(self) -> frozenset:
        return frozenset(
            (t.coeff, t.params, t.scan_var) for t in _combine(self.terms)
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            factors = [str(t.coeff)] if t.coeff != 1 or (
                not t.params and t.scan_var is None
            ) else []
            factors += list(t.params)
            if t.scan_var is not None:
                factors.append(t.scan_var)
            parts.append("*".join(factors))
        return " + ".join(parts)


def _combine(terms: list[IndexTerm]) -> list[IndexTerm]:
    acc: dict[tuple, int] = {}
    for t in terms:
        key = (t.params, t.scan_var)
        acc[key] = acc.get(key, 0) + t.coeff
    return [
        IndexTerm(coeff, params, scan_var)
        for (params, scan_var), coeff in acc.items()
        if coeff != 0
    ]
