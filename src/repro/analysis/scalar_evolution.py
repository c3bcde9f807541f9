"""Scalar evolution: linear forms of integer values over loop counters.

This is the analysis the paper obtains from LLVM's Scalar Evolution pass
(Section 5): for every integer value we try to express it as a *linear
form*

    value  =  sum over terms of   c * (product of parameters) * [iv]

where ``c`` is an integer coefficient, parameters are task arguments (or
other loop-invariant unknowns), and ``iv`` is at most one loop induction
variable per term.  Products of two induction variables, unknown loads,
non-unit strides and irregular phis make a value *non-linear*, which is
what routes a task to the non-affine skeleton path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir import (
    Argument,
    BinOp,
    Cast,
    Constant,
    Phi,
    Value,
)
from .loops import InductionVariable, LoopInfo

#: A monomial over parameters: canonically sorted tuple of parameter values.
ParamMonomial = tuple

#: A term key: (induction-variable phi or None, parameter monomial).
TermKey = tuple


def _monomial_sort_key(sym: Value):
    return (sym.name, id(sym))


def _mono(*symbols: Value) -> ParamMonomial:
    return tuple(sorted(symbols, key=_monomial_sort_key))


def _merge_monomials(a: ParamMonomial, b: ParamMonomial) -> ParamMonomial:
    return tuple(sorted(a + b, key=_monomial_sort_key))


@dataclass
class LinearExpr:
    """An integer value as a linear function of induction variables.

    ``terms`` maps ``(iv_phi_or_None, param_monomial)`` to an integer
    coefficient.  The constant term has key ``(None, ())``.
    """

    terms: dict[TermKey, int] = field(default_factory=dict)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "LinearExpr":
        return LinearExpr({(None, ()): value} if value else {})

    @staticmethod
    def symbol(sym: Value) -> "LinearExpr":
        return LinearExpr({(None, _mono(sym)): 1})

    @staticmethod
    def induction(iv_phi: Phi) -> "LinearExpr":
        return LinearExpr({(iv_phi, ()): 1})

    # -- algebra ----------------------------------------------------------------

    def _cleaned(self) -> "LinearExpr":
        return LinearExpr({k: c for k, c in self.terms.items() if c != 0})

    def __add__(self, other: "LinearExpr") -> "LinearExpr":
        result = dict(self.terms)
        for key, coeff in other.terms.items():
            result[key] = result.get(key, 0) + coeff
        return LinearExpr(result)._cleaned()

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        return self + other.negated()

    def negated(self) -> "LinearExpr":
        return LinearExpr({k: -c for k, c in self.terms.items()})

    def multiply(self, other: "LinearExpr") -> Optional["LinearExpr"]:
        """Product; ``None`` when the result would be nonlinear in IVs."""
        result: dict[TermKey, int] = {}
        for (iv1, mono1), c1 in self.terms.items():
            for (iv2, mono2), c2 in other.terms.items():
                if iv1 is not None and iv2 is not None:
                    return None  # iv * iv — quadratic
                iv = iv1 if iv1 is not None else iv2
                mono = _merge_monomials(mono1, mono2)
                key = (iv, mono)
                result[key] = result.get(key, 0) + c1 * c2
        return LinearExpr(result)._cleaned()

    def scaled(self, factor: int) -> "LinearExpr":
        return LinearExpr({k: c * factor for k, c in self.terms.items()})._cleaned()

    # -- queries ------------------------------------------------------------------

    @property
    def constant_value(self) -> Optional[int]:
        """The integer value if this expression is a pure constant."""
        clean = self._cleaned().terms
        if not clean:
            return 0
        if set(clean) == {(None, ())}:
            return clean[(None, ())]
        return None

    def induction_phis(self) -> list[Phi]:
        return sorted(
            {iv for (iv, _), _ in self.terms.items() if iv is not None},
            key=lambda p: p.name,
        )

    def parameters(self) -> list[Value]:
        params = {
            sym for (_, mono), _ in self.terms.items() for sym in mono
        }
        return sorted(params, key=_monomial_sort_key)

    def split_by_monomial(self, sym: Value):
        """Split into (with_sym / sym, without_sym) for delinearization.

        Terms whose parameter monomial contains ``sym`` exactly once go to
        the first part with that factor removed; terms not mentioning
        ``sym`` go to the second.  Terms with ``sym`` squared return None.
        """
        with_sym: dict[TermKey, int] = {}
        without: dict[TermKey, int] = {}
        for (iv, mono), coeff in self.terms.items():
            count = sum(1 for m in mono if m is sym)
            if count == 0:
                without[(iv, mono)] = coeff
            elif count == 1:
                reduced = list(mono)
                for i, m in enumerate(reduced):
                    if m is sym:
                        del reduced[i]
                        break
                with_sym[(iv, tuple(reduced))] = coeff
            else:
                return None
        return LinearExpr(with_sym)._cleaned(), LinearExpr(without)._cleaned()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._cleaned().terms == other._cleaned().terms

    def __hash__(self) -> int:
        return hash(frozenset(self._cleaned().terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (iv, mono), coeff in sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].name if kv[0][0] else "",
                            [s.name for s in kv[0][1]]),
        ):
            factors = [str(coeff)] if coeff != 1 or (iv is None and not mono) else []
            if coeff == -1 and (iv is not None or mono):
                factors = ["-"]
            factors += [s.name or "?" for s in mono]
            if iv is not None:
                factors.append(iv.name or "iv")
            parts.append("*".join(f for f in factors if f != "-") if factors != ["-"]
                         else "-" + "*".join([s.name or "?" for s in mono]
                                             + ([iv.name] if iv else [])))
        return " + ".join(parts)


class ScalarEvolution:
    """Builds linear forms for the integer values of one function."""

    def __init__(self, loop_info: LoopInfo):
        self.loop_info = loop_info
        self._cache: dict[int, Optional[LinearExpr]] = {}
        self._ivs: dict[int, InductionVariable] = {}
        for loop in loop_info.loops:
            iv = loop.induction_variable()
            if iv is not None:
                self._ivs[id(iv.phi)] = iv

    def linear(self, value: Value) -> Optional[LinearExpr]:
        """Linear form of ``value`` or None if it is not linear."""
        key = id(value)
        if key in self._cache:
            return self._cache[key]
        # Break cycles (irregular phis) by provisionally marking non-linear.
        self._cache[key] = None
        result = self._compute(value)
        self._cache[key] = result
        return result

    def _compute(self, value: Value) -> Optional[LinearExpr]:
        if isinstance(value, Constant) and value.type.is_integer():
            return LinearExpr.constant(int(value.value))
        if isinstance(value, Argument) and value.type.is_integer():
            return LinearExpr.symbol(value)
        if isinstance(value, Phi):
            iv = self._ivs.get(id(value))
            if iv is None:
                return None
            step = iv.step
            if not isinstance(step, Constant) or int(step.value) != 1:
                # Non-unit strides route to the skeleton path.
                return None
            return LinearExpr.induction(value)
        if isinstance(value, Cast) and value.kind in ("sext", "trunc"):
            return self.linear(value.value)
        if isinstance(value, BinOp):
            lhs = self.linear(value.lhs)
            rhs = self.linear(value.rhs)
            if lhs is None or rhs is None:
                return None
            if value.op == "add":
                return lhs + rhs
            if value.op == "sub":
                return lhs - rhs
            if value.op == "mul":
                return lhs.multiply(rhs)
            if value.op == "shl":
                shift = rhs.constant_value
                if shift is not None:
                    return lhs.scaled(2 ** shift)
                return None
            if value.op == "sdiv":
                divisor = rhs.constant_value
                if divisor is not None and divisor != 0:
                    # Only exact constant division of a constant stays linear.
                    numer = lhs.constant_value
                    if numer is not None and numer % divisor == 0:
                        return LinearExpr.constant(numer // divisor)
                return None
            return None
        return None

    def iv_bounds(self, phi: Phi):
        """(init, bound, predicate) linear forms for a canonical IV."""
        iv = self._ivs.get(id(phi))
        if iv is None:
            return None
        init = self.linear(iv.init)
        bound = self.linear(iv.bound) if iv.bound is not None else None
        if init is None or bound is None or iv.predicate is None:
            return None
        return init, bound, iv.predicate
