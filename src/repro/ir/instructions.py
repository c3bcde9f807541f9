"""Instruction set of the repro IR.

The set mirrors the subset of LLVM IR the paper's transformation needs:
arithmetic, comparisons, memory (alloca/load/store/gep), control flow
(br/condbr/ret/phi), calls, and the ``prefetch`` instruction that the
access-phase generator inserts (non-faulting, does not stall retirement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .types import BOOL, VOID, I64, PointerType, Type, pointer_to
from .values import Constant, Value, format_operands

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock


class Instruction(Value):
    """Base class for all instructions.

    An instruction is itself a :class:`Value` (its result).  Operand lists
    are managed through :meth:`set_operands` so that use lists stay
    consistent; passes should use :meth:`replace_operand` rather than
    mutating ``operands`` directly.
    """

    opcode = "<abstract>"
    #: True for instructions whose side effects keep them alive under DCE.
    has_side_effects = False
    #: True for instructions that terminate a basic block.
    is_terminator = False

    def __init__(self, ty: Type, operands: Sequence[Value] = (), name: str = ""):
        super().__init__(ty, name)
        self.parent: Optional["BasicBlock"] = None
        self.operands: list[Value] = []
        self.set_operands(operands)

    # -- operand/use management -------------------------------------------------

    def set_operands(self, operands: Sequence[Value]) -> None:
        for op in self.operands:
            op.remove_use(self)
        self.operands = list(operands)
        for op in self.operands:
            op.add_use(self)

    def replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                old.remove_use(self)
                new.add_use(self)

    def drop_all_references(self) -> None:
        """Detach this instruction from its operands (prior to deletion)."""
        self.set_operands(())

    def erase_from_parent(self) -> None:
        """Remove from the containing block and drop operand uses."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    # -- convenience -------------------------------------------------------------

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    def clone(self) -> "Instruction":
        """Shallow clone: same operands, no parent.  Phis clone blocks too."""
        new = object.__new__(type(self))
        Instruction.__init__(new, self.type, self.operands, self.name)
        for attr, val in self.__dict__.items():
            if attr not in ("type", "name", "operands", "uses", "parent"):
                setattr(new, attr, val)
        return new

    def _result_prefix(self) -> str:
        return "" if self.type.is_void() else "%s = " % self.short_name()

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, self.format())

    def format(self) -> str:
        return "%s%s %s" % (
            self._result_prefix(),
            self.opcode,
            format_operands(self.operands),
        )


# -- arithmetic ---------------------------------------------------------------


BINARY_OPS = {
    "add", "sub", "mul", "sdiv", "srem", "fadd", "fsub", "fmul", "fdiv",
    "and", "or", "xor", "shl", "ashr",
}

#: Binary ops whose result can trap or diverge; they still have no *memory*
#: side effects so DCE may remove them (matching LLVM's treatment under
#: speculative prefetch slices, where correctness is not required).
_FLOAT_OPS = {"fadd", "fsub", "fmul", "fdiv"}


class BinOp(Instruction):
    """A two-operand arithmetic/logical operation."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise ValueError("unknown binary op %r" % op)
        if lhs.type != rhs.type:
            raise TypeError("binop operand types differ: %r vs %r" % (lhs.type, rhs.type))
        super().__init__(lhs.type, (lhs, rhs), name)
        self.op = op

    opcode = "binop"

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def format(self) -> str:
        return "%s%s %s" % (self._result_prefix(), self.op, format_operands(self.operands))


CMP_PREDICATES = {"eq", "ne", "slt", "sle", "sgt", "sge"}


class Cmp(Instruction):
    """Integer or float comparison, yielding i1."""

    opcode = "cmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in CMP_PREDICATES:
            raise ValueError("unknown predicate %r" % pred)
        if lhs.type != rhs.type:
            raise TypeError("cmp operand types differ: %r vs %r" % (lhs.type, rhs.type))
        super().__init__(BOOL, (lhs, rhs), name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def format(self) -> str:
        return "%scmp %s %s" % (self._result_prefix(), self.pred, format_operands(self.operands))


class Cast(Instruction):
    """Type conversion: sext/trunc/sitofp/fptosi/fpext/fptrunc/bitcast."""

    opcode = "cast"
    KINDS = {"sext", "trunc", "sitofp", "fptosi", "fpext", "fptrunc", "bitcast"}

    def __init__(self, kind: str, value: Value, to_type: Type, name: str = ""):
        if kind not in self.KINDS:
            raise ValueError("unknown cast kind %r" % kind)
        super().__init__(to_type, (value,), name)
        self.kind = kind

    @property
    def value(self) -> Value:
        return self.operands[0]

    def format(self) -> str:
        return "%s%s %s to %r" % (
            self._result_prefix(), self.kind, self.value.short_name(), self.type,
        )


class Select(Instruction):
    """``select cond, a, b`` — the ternary operator."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if if_true.type != if_false.type:
            raise TypeError("select arm types differ")
        super().__init__(if_true.type, (cond, if_true, if_false), name)

    @property
    def cond(self) -> Value:
        return self.operands[0]


# -- memory -------------------------------------------------------------------


class Alloca(Instruction):
    """Stack slot for a local scalar; removed by mem2reg where possible."""

    opcode = "alloca"
    has_side_effects = False

    def __init__(self, allocated_type: Type, name: str = ""):
        super().__init__(pointer_to(allocated_type), (), name)
        self.allocated_type = allocated_type

    def format(self) -> str:
        return "%salloca %r" % (self._result_prefix(), self.allocated_type)


class GEP(Instruction):
    """Element address computation: ``base + index * sizeof(elem)``.

    Multi-dimensional indexing is expressed with explicit index arithmetic
    (``i*N + j``) feeding a single-index GEP, which is exactly what scalar
    evolution recovers as an affine function of the loop counters.
    """

    opcode = "gep"

    def __init__(self, base: Value, index: Value, name: str = ""):
        if not base.type.is_pointer():
            raise TypeError("GEP base must be a pointer, got %r" % base.type)
        if not index.type.is_integer():
            raise TypeError("GEP index must be an integer, got %r" % index.type)
        super().__init__(base.type, (base, index), name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def element_size(self) -> int:
        pointee = self.base.type.pointee  # type: ignore[attr-defined]
        return pointee.size_bytes


class Load(Instruction):
    """Memory read.  Loads from allocas are register traffic, not memory."""

    opcode = "load"
    # Loads have no store-side effects but may fault; the access-phase
    # generator never keeps a raw load it cannot prove in-bounds — it uses
    # prefetch instead, which cannot fault.
    has_side_effects = False

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer():
            raise TypeError("load pointer operand must be a pointer")
        ptr_type: PointerType = pointer.type  # type: ignore[assignment]
        super().__init__(ptr_type.pointee, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Memory write."""

    opcode = "store"
    has_side_effects = True

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer():
            raise TypeError("store pointer operand must be a pointer")
        if pointer.type.pointee != value.type:  # type: ignore[attr-defined]
            raise TypeError("store value/pointer type mismatch")
        super().__init__(VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class Prefetch(Instruction):
    """Non-faulting cache-line prefetch (``__builtin_prefetch``).

    Does not stall retirement, so the core model grants prefetches more
    memory-level parallelism than demand loads (Section 3.1 of the paper).
    """

    opcode = "prefetch"
    has_side_effects = True  # keeps the prefetch alive through DCE

    def __init__(self, pointer: Value):
        if not pointer.type.is_pointer():
            raise TypeError("prefetch operand must be a pointer")
        super().__init__(VOID, (pointer,))

    @property
    def pointer(self) -> Value:
        return self.operands[0]


# -- control flow -------------------------------------------------------------


class Terminator(Instruction):
    is_terminator = True
    has_side_effects = True

    def successors(self) -> list["BasicBlock"]:
        return []


class Jump(Terminator):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, ())
        self.target = target

    def successors(self) -> list["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new

    def format(self) -> str:
        return "br label %%%s" % self.target.name


class CondBr(Terminator):
    """Conditional branch on an i1 value."""

    opcode = "condbr"

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"):
        super().__init__(VOID, (cond,))
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def successors(self) -> list["BasicBlock"]:
        return [self.if_true, self.if_false]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new

    def format(self) -> str:
        return "br %s, label %%%s, label %%%s" % (
            self.cond.short_name(), self.if_true.name, self.if_false.name,
        )


class Ret(Terminator):
    """Function return, with optional value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def format(self) -> str:
        if self.value is None:
            return "ret void"
        return "ret %s" % self.value.short_name()


class Phi(Instruction):
    """SSA phi node; incoming blocks are kept aligned with operands."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, (), name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError("phi incoming type mismatch")
        self.operands.append(value)
        value.add_use(self)
        self.incoming_blocks.append(block)

    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for_block(self, block: "BasicBlock") -> Optional[Value]:
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def remove_incoming_block(self, block: "BasicBlock") -> None:
        for i in range(len(self.incoming_blocks) - 1, -1, -1):
            if self.incoming_blocks[i] is block:
                self.operands[i].remove_use(self)
                del self.operands[i]
                del self.incoming_blocks[i]

    def clone(self) -> "Phi":
        new = Phi(self.type, self.name)
        for value, block in self.incoming():
            new.add_incoming(value, block)
        return new

    def format(self) -> str:
        pairs = ", ".join(
            "[%s, %%%s]" % (v.short_name(), b.name) for v, b in self.incoming()
        )
        return "%sphi %s" % (self._result_prefix(), pairs)


class Call(Instruction):
    """Direct call to another function in the module."""

    opcode = "call"
    has_side_effects = True

    def __init__(self, callee, args: Sequence[Value], name: str = ""):
        super().__init__(callee.return_type, tuple(args), name)
        self.callee = callee

    @property
    def args(self) -> list[Value]:
        return list(self.operands)

    def format(self) -> str:
        return "%scall @%s(%s)" % (
            self._result_prefix(), self.callee.name, format_operands(self.operands),
        )


def int_constant(value: int) -> Constant:
    """Shorthand for a 64-bit integer constant (the DSL's native int)."""
    return Constant(I64, value)
