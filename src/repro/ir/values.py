"""Core value hierarchy of the repro IR.

Everything that can appear as an operand is a :class:`Value`.  Values track
their uses, which gives passes use-def *and* def-use chains for free: an
instruction's operands are its defs' values, and ``value.uses`` enumerates
the instructions consuming it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .types import Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .instructions import Instruction


class Value:
    """Base class for everything that can be used as an operand."""

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        self.name = name
        # Instructions currently using this value.  A user appears once per
        # distinct operand slot; duplicates are kept as a multiset via list.
        self.uses: list["Instruction"] = []

    def add_use(self, user: "Instruction") -> None:
        self.uses.append(user)

    def remove_use(self, user: "Instruction") -> None:
        self.uses.remove(user)

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every user's operand list to reference ``replacement``."""
        if replacement is self:
            return
        for user in list(self.uses):
            user.replace_operand(self, replacement)

    def short_name(self) -> str:
        return "%" + self.name if self.name else "%<anon>"

    def __repr__(self) -> str:
        return "<%s %s: %r>" % (type(self).__name__, self.short_name(), self.type)


class Constant(Value):
    """An immediate integer or float constant."""

    def __init__(self, ty: Type, value):
        super().__init__(ty, name="")
        if ty.is_integer():
            value = int(value)
        elif ty.is_float():
            value = float(value)
        else:
            raise TypeError("constants must be integer or float, got %r" % ty)
        self.value = value

    def short_name(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return "<Constant %r: %r>" % (self.value, self.type)


class Undef(Value):
    """An undefined value (used by mem2reg for uninitialized reads)."""

    def short_name(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: Type, name: str, index: int):
        super().__init__(ty, name)
        self.index = index


class GlobalVariable(Value):
    """A module-level variable.

    The value's type is a *pointer* to the stored type, as in LLVM: reads
    and writes go through Load/Store on the global's address.
    """

    def __init__(self, ty: Type, name: str, size_elems: int = 1):
        from .types import pointer_to

        super().__init__(pointer_to(ty), name)
        self.value_type = ty
        self.size_elems = size_elems

    def short_name(self) -> str:
        return "@" + self.name


def format_operands(operands: Iterable[Value]) -> str:
    return ", ".join(op.short_name() for op in operands)
