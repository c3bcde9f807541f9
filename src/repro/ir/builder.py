"""IRBuilder: convenience layer for constructing IR.

Mirrors LLVM's IRBuilder: it holds an insertion point (a basic block) and
offers one method per instruction kind, naming results automatically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    GEP,
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBr,
    Instruction,
    Jump,
    Load,
    Phi,
    Prefetch,
    Ret,
    Select,
    Store,
)
from .types import Type
from .values import Constant, Value


class IRBuilder:
    """Appends instructions to a current block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise ValueError("builder has no insertion point")
        return self.block.parent

    def _insert(self, inst: Instruction, name: str = "") -> Instruction:
        if self.block is None:
            raise ValueError("builder has no insertion point")
        if name and not inst.type.is_void():
            inst.name = self.function.unique_name(name)
        elif not inst.type.is_void() and not inst.name:
            inst.name = self.function.unique_name("t")
        return self.block.append(inst)

    # -- arithmetic -------------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(BinOp(op, lhs, rhs), name or op)

    def add(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop("add", a, b, name)

    def sub(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop("sub", a, b, name)

    def mul(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop("mul", a, b, name)

    def sdiv(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop("sdiv", a, b, name)

    def srem(self, a: Value, b: Value, name: str = "") -> Value:
        return self.binop("srem", a, b, name)

    def cmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(Cmp(pred, lhs, rhs), name or "cmp")

    def cast(self, kind: str, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(Cast(kind, value, to_type), name or kind)

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(Select(cond, a, b), name or "sel")

    # -- memory -----------------------------------------------------------------

    def alloca(self, ty: Type, name: str = "") -> Value:
        inst = Alloca(ty)
        if name:
            inst.name = self.function.unique_name(name)
        # Allocas live in the entry block so dominance holds everywhere.
        entry = self.function.entry
        term_safe_index = len(entry.instructions)
        if entry.terminator is not None:
            term_safe_index -= 1
        return entry.insert(term_safe_index, inst)

    def gep(self, base: Value, index: Value, name: str = "") -> Value:
        return self._insert(GEP(base, index), name or "addr")

    def load(self, pointer: Value, name: str = "") -> Value:
        return self._insert(Load(pointer), name or "ld")

    def store(self, value: Value, pointer: Value) -> Value:
        return self._insert(Store(value, pointer))

    def prefetch(self, pointer: Value) -> Value:
        return self._insert(Prefetch(pointer))

    # -- control flow -------------------------------------------------------------

    def jump(self, target: BasicBlock) -> Value:
        return self._insert(Jump(target))

    def condbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Value:
        return self._insert(CondBr(cond, if_true, if_false))

    def ret(self, value: Optional[Value] = None) -> Value:
        return self._insert(Ret(value))

    def phi(self, ty: Type, name: str = "") -> Phi:
        inst = Phi(ty)
        inst.name = self.function.unique_name(name or "phi")
        if self.block is None:
            raise ValueError("builder has no insertion point")
        return self.block.insert_front(inst)  # type: ignore[return-value]

    def call(self, callee: Function, args: Sequence[Value], name: str = "") -> Value:
        return self._insert(Call(callee, args), name or "call")

    # -- constants ----------------------------------------------------------------

    @staticmethod
    def const(ty: Type, value) -> Constant:
        return Constant(ty, value)
