"""Dominator-scoped global value numbering (CSE).

Eliminates redundant pure computations — in particular the repeated
address arithmetic (``j*N + i`` computed once per use) the frontend
emits.  This implements Section 5.2.3's "avoiding recomputation of
memory addresses" and contributes to the "leaner access phases" the
paper credits the compiler with (Section 1).

The walk follows the dominator tree with a scoped hash table: an
expression available in a dominator is available in every dominated
block.  Only pure instructions participate (binops, comparisons, casts,
selects, GEPs); loads are skipped (memory may change), as are anything
with side effects.
"""

from __future__ import annotations

from ..analysis.dominators import DominatorTree
from ..ir import (
    GEP,
    BinOp,
    Cast,
    Cmp,
    Constant,
    Function,
    Instruction,
    Select,
    Value,
)

#: Commutative binary operators (operands sorted in the key).
_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "fadd", "fmul"}


def _operand_key(value: Value):
    if isinstance(value, Constant):
        return ("const", repr(value.type), value.value)
    return ("val", id(value))


def _expression_key(inst: Instruction):
    """Hashable identity of a pure instruction, or None if impure."""
    if isinstance(inst, BinOp):
        ops = [_operand_key(inst.lhs), _operand_key(inst.rhs)]
        if inst.op in _COMMUTATIVE:
            ops.sort()
        return ("binop", inst.op, tuple(ops))
    if isinstance(inst, Cmp):
        return (
            "cmp", inst.pred,
            (_operand_key(inst.lhs), _operand_key(inst.rhs)),
        )
    if isinstance(inst, Cast):
        return ("cast", inst.kind, repr(inst.type), _operand_key(inst.value))
    if isinstance(inst, Select):
        return ("select", tuple(_operand_key(o) for o in inst.operands))
    if isinstance(inst, GEP):
        return ("gep", _operand_key(inst.base), _operand_key(inst.index))
    return None


def global_value_numbering(func: Function) -> int:
    """Replace dominated recomputations; returns how many were removed."""
    dom = DominatorTree(func)
    removed = 0

    def visit(block, available: dict):
        nonlocal removed
        scope = dict(available)
        for inst in list(block.instructions):
            key = _expression_key(inst)
            if key is None:
                continue
            existing = scope.get(key)
            if existing is not None:
                inst.replace_all_uses_with(existing)
                inst.erase_from_parent()
                removed += 1
            else:
                scope[key] = inst
        for child in dom.children.get(block, ()):
            visit(child, scope)

    visit(func.entry, {})
    return removed
