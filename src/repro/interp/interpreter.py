"""IR interpreter.

Executes functions against a :class:`SimMemory`, producing the dynamic
instruction and memory-event stream the hardware model consumes.  This
plays the role of the paper's real Sandy Bridge: it defines *what* a
task phase does; the :mod:`repro.sim` package models *how long* it takes
and the power model turns that into energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..ir import (
    GEP,
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBr,
    Constant,
    Function,
    GlobalVariable,
    Instruction,
    Jump,
    Load,
    Prefetch,
    Ret,
    Select,
    Store,
    Undef,
    Value,
)
from .memory import SimMemory


class InterpError(Exception):
    """Raised on malformed IR or runaway execution."""


class _UndefValue:
    """Poison: propagates through arithmetic, skips prefetches."""

    def __repr__(self) -> str:
        return "<undef>"


UNDEF = _UndefValue()


@dataclass
class MemoryEvent:
    """One dynamic memory operation, in program order."""

    kind: str  # 'load' | 'store' | 'prefetch'
    address: int
    size: int


@dataclass
class ExecutionTrace:
    """Dynamic statistics of one function invocation."""

    instructions: int = 0
    by_opcode: dict = field(default_factory=dict)
    mem_events: int = 0
    dropped_prefetches: int = 0
    return_value: object = None

    def count(self, opcode: str) -> int:
        return self.by_opcode.get(opcode, 0)

    @property
    def flops(self) -> int:
        return sum(
            self.by_opcode.get(op, 0) for op in ("fadd", "fsub", "fmul", "fdiv")
        )

    def snapshot(self) -> dict:
        """Flat dict of the trace's counters, for obs counter events.

        Taken once per phase after ``run`` returns — the interpreter's
        inner loop itself carries no instrumentation, so tracing
        overhead never touches per-instruction execution.
        """
        return {
            "instructions": self.instructions,
            "mem_events": self.mem_events,
            "dropped_prefetches": self.dropped_prefetches,
            "flops": self.flops,
            "by_opcode": dict(self.by_opcode),
        }


class Interpreter:
    """Executes IR functions with an optional memory-event observer.

    The observer is called as ``observer(event)`` for every dynamic
    load/store/prefetch; the cache simulator plugs in here.
    """

    def __init__(self, memory: SimMemory,
                 observer: Optional[Callable[[MemoryEvent], None]] = None,
                 max_steps: int = 200_000_000,
                 branch_observer: Optional[Callable] = None):
        self.memory = memory
        self.observer = observer
        self.max_steps = max_steps
        #: Called as ``branch_observer(condbr_inst, taken_bool)`` on every
        #: dynamic conditional branch — the hook the hot-path profiler uses.
        self.branch_observer = branch_observer
        self.globals: dict[str, int] = {}

    def bind_global(self, gv: GlobalVariable, address: int) -> None:
        self.globals[gv.name] = address

    # -- main loop ----------------------------------------------------------------

    def run(self, func: Function, args: list,
            trace: Optional[ExecutionTrace] = None) -> ExecutionTrace:
        trace = trace if trace is not None else ExecutionTrace()
        if len(args) != len(func.args):
            raise InterpError(
                "%s expects %d args, got %d"
                % (func.name, len(func.args), len(args))
            )
        env: dict[int, object] = {
            id(formal): actual for formal, actual in zip(func.args, args)
        }
        local_mem: dict[int, object] = {}

        block = func.entry
        prev_block = None
        steps_left = self.max_steps - trace.instructions

        while True:
            # Phis read their incoming values in parallel.
            phis = block.phis()
            if phis:
                updates = []
                for phi in phis:
                    value = phi.incoming_for_block(prev_block)
                    if value is None:
                        raise InterpError(
                            "phi %s has no incoming for %s"
                            % (phi.short_name(),
                               prev_block.name if prev_block else "<entry>")
                        )
                    updates.append((phi, self._value(value, env, local_mem)))
                for phi, value in updates:
                    env[id(phi)] = value
                trace.instructions += len(phis)
                trace.by_opcode["phi"] = trace.by_opcode.get("phi", 0) + len(phis)

            for inst in block.non_phi_instructions():
                trace.instructions += 1
                opcode = getattr(inst, "op", None) or inst.opcode
                trace.by_opcode[opcode] = trace.by_opcode.get(opcode, 0) + 1
                if trace.instructions > self.max_steps:
                    raise InterpError("interpreter step limit exceeded")

                if isinstance(inst, Jump):
                    prev_block, block = block, inst.target
                    break
                if isinstance(inst, CondBr):
                    cond = self._value(inst.cond, env, local_mem)
                    if cond is UNDEF:
                        raise InterpError("branch on undef in %s" % func.name)
                    if self.branch_observer is not None:
                        self.branch_observer(inst, bool(cond))
                    prev_block, block = block, (
                        inst.if_true if cond else inst.if_false
                    )
                    break
                if isinstance(inst, Ret):
                    if inst.value is not None:
                        trace.return_value = self._value(
                            inst.value, env, local_mem
                        )
                    return trace

                result = self._execute(inst, env, local_mem, trace)
                if result is not _NO_RESULT:
                    env[id(inst)] = result
            else:
                raise InterpError(
                    "block %s fell through without terminator" % block.name
                )

    # -- instruction semantics -------------------------------------------------------

    def _execute(self, inst: Instruction, env, local_mem, trace):
        if isinstance(inst, BinOp):
            lhs = self._value(inst.lhs, env, local_mem)
            rhs = self._value(inst.rhs, env, local_mem)
            if lhs is UNDEF or rhs is UNDEF:
                return UNDEF
            return _binop(inst.op, lhs, rhs)
        if isinstance(inst, Cmp):
            lhs = self._value(inst.lhs, env, local_mem)
            rhs = self._value(inst.rhs, env, local_mem)
            if lhs is UNDEF or rhs is UNDEF:
                return UNDEF
            return int(_compare(inst.pred, lhs, rhs))
        if isinstance(inst, Cast):
            value = self._value(inst.value, env, local_mem)
            if value is UNDEF:
                return UNDEF
            return _cast(inst.kind, value, inst.type)
        if isinstance(inst, Select):
            cond = self._value(inst.operands[0], env, local_mem)
            if cond is UNDEF:
                return UNDEF
            picked = inst.operands[1] if cond else inst.operands[2]
            return self._value(picked, env, local_mem)
        if isinstance(inst, Alloca):
            slot = self.memory.alloc(
                max(8, inst.allocated_type.size_bytes), "alloca." + inst.name
            )
            return slot
        if isinstance(inst, GEP):
            base = self._value(inst.base, env, local_mem)
            index = self._value(inst.index, env, local_mem)
            if base is UNDEF or index is UNDEF:
                return UNDEF
            return int(base) + int(index) * inst.element_size
        if isinstance(inst, Load):
            address = self._value(inst.pointer, env, local_mem)
            if address is UNDEF:
                return UNDEF
            size = inst.type.size_bytes
            self._observe(MemoryEvent("load", int(address), size), trace)
            return self.memory.load(int(address), inst.type)
        if isinstance(inst, Store):
            address = self._value(inst.pointer, env, local_mem)
            value = self._value(inst.value, env, local_mem)
            if address is UNDEF:
                return _NO_RESULT
            size = inst.value.type.size_bytes
            self._observe(MemoryEvent("store", int(address), size), trace)
            if value is not UNDEF:
                self.memory.store(int(address), inst.value.type, value)
            return _NO_RESULT
        if isinstance(inst, Prefetch):
            address = self._value(inst.pointer, env, local_mem)
            if address is UNDEF:
                trace.dropped_prefetches += 1
                return _NO_RESULT
            size = inst.pointer.type.pointee.size_bytes  # type: ignore[attr-defined]
            self._observe(MemoryEvent("prefetch", int(address), size), trace)
            return _NO_RESULT
        if isinstance(inst, Call):
            args = [self._value(a, env, local_mem) for a in inst.operands]
            sub = self.run(inst.callee, args)
            trace.instructions += sub.instructions
            for opcode, count in sub.by_opcode.items():
                trace.by_opcode[opcode] = trace.by_opcode.get(opcode, 0) + count
            trace.mem_events += sub.mem_events
            trace.dropped_prefetches += sub.dropped_prefetches
            return sub.return_value if not inst.type.is_void() else _NO_RESULT
        raise InterpError("unhandled instruction %r" % inst)

    def _observe(self, event: MemoryEvent, trace: ExecutionTrace) -> None:
        trace.mem_events += 1
        if self.observer is not None:
            self.observer(event)

    def _value(self, value: Value, env, local_mem):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Undef):
            return UNDEF
        if isinstance(value, GlobalVariable):
            address = self.globals.get(value.name)
            if address is None:
                raise InterpError("unbound global @%s" % value.name)
            return address
        if id(value) in env:
            return env[id(value)]
        raise InterpError("use of undefined value %s" % value.short_name())


_NO_RESULT = object()


def _binop(op: str, lhs, rhs):
    if op == "add":
        return int(lhs) + int(rhs)
    if op == "sub":
        return int(lhs) - int(rhs)
    if op == "mul":
        return int(lhs) * int(rhs)
    if op == "sdiv":
        if rhs == 0:
            raise InterpError("integer division by zero")
        quotient = abs(int(lhs)) // abs(int(rhs))
        return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
    if op == "srem":
        if rhs == 0:
            raise InterpError("integer remainder by zero")
        return int(lhs) - _binop("sdiv", lhs, rhs) * int(rhs)
    if op == "fadd":
        return float(lhs) + float(rhs)
    if op == "fsub":
        return float(lhs) - float(rhs)
    if op == "fmul":
        return float(lhs) * float(rhs)
    if op == "fdiv":
        if rhs == 0.0:
            return float("inf") if lhs > 0 else float("-inf") if lhs < 0 else float("nan")
        return float(lhs) / float(rhs)
    if op == "and":
        return int(lhs) & int(rhs)
    if op == "or":
        return int(lhs) | int(rhs)
    if op == "xor":
        return int(lhs) ^ int(rhs)
    if op == "shl":
        return int(lhs) << int(rhs)
    if op == "ashr":
        return int(lhs) >> int(rhs)
    raise InterpError("unknown binop %s" % op)


def _compare(pred: str, lhs, rhs) -> bool:
    if pred == "eq":
        return lhs == rhs
    if pred == "ne":
        return lhs != rhs
    if pred == "slt":
        return lhs < rhs
    if pred == "sle":
        return lhs <= rhs
    if pred == "sgt":
        return lhs > rhs
    if pred == "sge":
        return lhs >= rhs
    raise InterpError("unknown predicate %s" % pred)


_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)


def fptosi(value) -> int:
    """float→int conversion with *defined* non-finite semantics.

    NaN converts to 0 and ±inf saturates to the int64 bounds (the
    hardware-like choice), instead of Python's bare ``int()`` raising
    ``OverflowError``/``ValueError`` — an uncontrolled crash on
    verifier-clean programs, found by the fuzzer (corpus entry
    ``fptosi-inf.fuzz``).  Both interpreters share this one definition.
    """
    if value != value:  # NaN
        return 0
    if value == float("inf"):
        return _INT64_MAX
    if value == float("-inf"):
        return _INT64_MIN
    return int(value)


def _cast(kind: str, value, to_type):
    if kind in ("sext", "trunc", "bitcast"):
        return int(value)
    if kind == "sitofp":
        return float(value)
    if kind == "fptosi":
        return fptosi(value)
    if kind in ("fpext", "fptrunc"):
        return float(value)
    raise InterpError("unknown cast %s" % kind)
