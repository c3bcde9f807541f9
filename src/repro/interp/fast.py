"""Fast IR interpreter: array-indexed dispatch over pre-decoded records.

Replacement for :class:`~repro.interp.interpreter.Interpreter` that
executes the :mod:`~repro.interp.decode` form instead of the IR
object graph.  Behaviour is bit-identical — same traces, same memory
side effects, same event stream in the same order, same error messages
— which ``tests/interp/test_fast_equivalence.py`` pins on every bundled
workload; only the constant factor changes:

* operand fetches are list indexes into a flat register file (constants
  pre-stored by the decoder) instead of ``id()``-dict probes;
* dispatch is an integer compare chain ordered by opcode frequency
  instead of an ``isinstance`` ladder;
* dynamic counters (``instructions``, ``by_opcode``) are charged once
  per basic block from precomputed deltas instead of once per step;
* memory events *stream*: the interpreter calls ``sink(kind, address,
  size)`` with three scalars — no :class:`MemoryEvent` is allocated —
  and loads/stores touch :class:`SimMemory`'s cell dict directly.

The reference interpreter stays available (``--interp reference``, or
``TaskStreamProfiler(..., interp="reference")``) as the executable
specification the fast core is tested against.

One deliberate deviation: the step limit is enforced at basic-block
granularity, so a runaway run may raise :class:`InterpError` a few
instructions earlier than the reference would.  Both abort with the
same error; successful runs are unaffected.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ir import Function, GlobalVariable
from .decode import decode_function
from .interpreter import UNDEF, ExecutionTrace, InterpError
from .memory import MemoryError_, SimMemory

#: Marker distinguishing "returned void" from "returned None".
_NO_RET = object()

#: Accepted interpreter choices.  ``"replay"`` is this fast core plus
#: cross-scheme trace reuse: when a profiling matrix spans several
#: schemes, each execute phase is interpreted once and *replayed*
#: through the cache model for the other schemes (see
#: :mod:`repro.interp.trace`); a single-scheme matrix interprets every
#: phase.  ``"reference"`` is the executable specification.
INTERP_CHOICES = ("replay", "reference")


def resolve_interp(choice: Optional[str] = None) -> str:
    """Validate an interpreter choice; ``None`` means ``"replay"``.

    Both choices produce byte-identical profiles — the profiler falls
    back to full interpretation wherever the replay invariant does not
    hold — so the fastest one is the default everywhere.
    """
    choice = choice or "replay"
    if choice not in INTERP_CHOICES:
        raise ValueError(
            "unknown interpreter %r; expected one of %s"
            % (choice, ", ".join(repr(c) for c in INTERP_CHOICES))
        )
    return choice


class FastInterpreter:
    """Executes pre-decoded IR functions.

    ``sink`` is the streaming memory observer — called as
    ``sink(kind, address, size)`` for every dynamic memory operation
    without allocating an event object.
    """

    def __init__(self, memory: SimMemory,
                 max_steps: int = 200_000_000,
                 sink: Optional[Callable[[str, int, int], None]] = None):
        self.memory = memory
        self.max_steps = max_steps
        self.globals: dict[str, int] = {}
        self.sink = sink

    def bind_global(self, gv: GlobalVariable, address: int) -> None:
        self.globals[gv.name] = address

    def run(self, func: Function, args: list,
            trace: Optional[ExecutionTrace] = None) -> ExecutionTrace:
        trace = trace if trace is not None else ExecutionTrace()
        if len(args) != len(func.args):
            raise InterpError(
                "%s expects %d args, got %d"
                % (func.name, len(func.args), len(args))
            )
        decoded = decode_function(func)
        result = self._run(decoded, list(args), trace, 0)
        if result is not _NO_RET:
            trace.return_value = result
        return trace

    def _run(self, decoded, args: list, trace: ExecutionTrace,
             base: int):
        """Execute one decoded invocation; returns the ret value.

        ``base`` is ``trace.instructions`` at invocation entry, so the
        step limit applies per invocation exactly as the reference's
        fresh-trace-per-call does.  The trace itself is shared: counts
        land directly where the reference would merge them.
        """
        memory = self.memory
        cells = memory._cells
        check_bounds = memory.check_bounds
        region_of = memory.region_of
        alloc = memory.alloc
        sink = self.sink
        max_steps = self.max_steps
        by_opcode = trace.by_opcode

        regs = decoded.template[:]
        index = 0
        for slot in decoded.arg_slots:
            regs[slot] = args[index]
            index += 1
        if decoded.global_slots:
            bound = self.globals
            for name, slot in decoded.global_slots:
                try:
                    regs[slot] = bound[name]
                except KeyError:
                    raise InterpError("unbound global @%s" % name) from None

        blocks = decoded.blocks
        block = blocks[0]
        while True:
            # Charge the whole block's dynamic counters up front.
            total = trace.instructions + block.count
            trace.instructions = total
            if total - base > max_steps:
                raise InterpError("interpreter step limit exceeded")
            for op_name, delta in block.pairs:
                by_opcode[op_name] = by_opcode.get(op_name, 0) + delta

            for op in block.ops:
                code = op[0]
                if code == 0:  # OP_BINOP: (dest, lhs, rhs, fn)
                    a = regs[op[2]]
                    b = regs[op[3]]
                    regs[op[1]] = (
                        UNDEF if a is UNDEF or b is UNDEF else op[4](a, b)
                    )
                elif code == 1:  # OP_GEP: (dest, base, index, elem_size)
                    a = regs[op[2]]
                    b = regs[op[3]]
                    regs[op[1]] = (
                        UNDEF if a is UNDEF or b is UNDEF
                        else int(a) + int(b) * op[4]
                    )
                elif code == 2:  # OP_LOAD: (dest, ptr, size, is_float)
                    address = regs[op[2]]
                    if address is UNDEF:
                        regs[op[1]] = UNDEF
                    else:
                        address = int(address)
                        trace.mem_events += 1
                        if sink is not None:
                            sink("load", address, op[3])
                        if check_bounds and region_of(address) is None:
                            raise MemoryError_(
                                "load from unallocated address 0x%x"
                                % address
                            )
                        value = cells.get(address)
                        if value is None:
                            regs[op[1]] = 0.0 if op[4] else 0
                        elif op[4]:
                            regs[op[1]] = float(value)
                        else:
                            regs[op[1]] = int(value)
                elif code == 3:  # OP_CMP: (dest, lhs, rhs, fn)
                    a = regs[op[2]]
                    b = regs[op[3]]
                    regs[op[1]] = (
                        UNDEF if a is UNDEF or b is UNDEF else op[4](a, b)
                    )
                elif code == 4:  # OP_JUMP: (edge,)
                    edge = op[1]
                    target = edge[0]
                    if target < 0:
                        raise InterpError(edge[1])
                    srcs = edge[1]
                    if srcs:
                        values = [regs[s] for s in srcs]
                        for dest, value in zip(edge[2], values):
                            regs[dest] = value
                    block = blocks[target]
                    break
                elif code == 5:  # OP_CONDBR: (cond, t_edge, f_edge)
                    cond = regs[op[1]]
                    if cond is UNDEF:
                        raise InterpError(
                            "branch on undef in %s" % decoded.name
                        )
                    edge = op[2] if cond else op[3]
                    target = edge[0]
                    if target < 0:
                        raise InterpError(edge[1])
                    srcs = edge[1]
                    if srcs:
                        values = [regs[s] for s in srcs]
                        for dest, value in zip(edge[2], values):
                            regs[dest] = value
                    block = blocks[target]
                    break
                elif code == 6:  # OP_STORE: (value, ptr, size, is_float)
                    value = regs[op[1]]
                    address = regs[op[2]]
                    if address is not UNDEF:
                        address = int(address)
                        trace.mem_events += 1
                        if sink is not None:
                            sink("store", address, op[3])
                        if value is not UNDEF:
                            if check_bounds and region_of(address) is None:
                                raise MemoryError_(
                                    "store to unallocated address 0x%x"
                                    % address
                                )
                            cells[address] = (
                                float(value) if op[4] else int(value)
                            )
                elif code == 7:  # OP_PREFETCH: (ptr, size)
                    address = regs[op[1]]
                    if address is UNDEF:
                        trace.dropped_prefetches += 1
                    else:
                        trace.mem_events += 1
                        if sink is not None:
                            sink("prefetch", int(address), op[2])
                elif code == 8:  # OP_CAST: (dest, value, fn)
                    value = regs[op[2]]
                    regs[op[1]] = UNDEF if value is UNDEF else op[3](value)
                elif code == 9:  # OP_SELECT: (dest, cond, true, false)
                    cond = regs[op[2]]
                    regs[op[1]] = (
                        UNDEF if cond is UNDEF
                        else regs[op[3]] if cond else regs[op[4]]
                    )
                elif code == 10:  # OP_CALL: (dest, callee, arg_slots)
                    callee = op[2]
                    sub = callee.__dict__.get("_repro_decoded")
                    if sub is None:
                        sub = decode_function(callee)
                    sub_args = [regs[s] for s in op[3]]
                    result = self._run(
                        sub, sub_args, trace, trace.instructions
                    )
                    if op[1] >= 0:
                        regs[op[1]] = (
                            None if result is _NO_RET else result
                        )
                elif code == 11:  # OP_ALLOCA: (dest, size, name)
                    regs[op[1]] = alloc(op[2], op[3])
                elif code == 12:  # OP_RET: (value_slot,)
                    slot = op[1]
                    return _NO_RET if slot < 0 else regs[slot]
                else:  # OP_RAISE: (message,)
                    raise InterpError(op[1])
