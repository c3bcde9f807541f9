"""One-time pre-decoding of IR functions into flat slot-addressed records.

The reference interpreter walks the IR object graph on every step:
``isinstance`` chains pick the semantics, an ``id()``-keyed dict holds
the SSA environment, and every operand fetch re-classifies the value
(constant? global? instruction result?).  None of that work depends on
the dynamic execution — it is the same for every iteration of every
loop — so this module hoists all of it into a single decode pass per
:class:`~repro.ir.function.Function`, whose output
:mod:`repro.interp.fast` compiles to Python source:

* every SSA value (argument, instruction result, constant, global) is
  numbered into a slot; the slot *template* holds each constant's
  value, so the code generator can turn constants into literals;
* each basic block becomes a dense tuple of operation records —
  ``(opcode_int, slot indices, pre-resolved immediates)``, where a
  binop or compare carries its op or predicate name and a cast its
  conversion function;
* per-block dynamic-counter deltas (instruction total plus the
  ``by_opcode`` histogram) are precomputed, so the generated code
  counts block executions and folds the histogram once per call;
* phi semantics are resolved per CFG *edge*: each branch record carries
  the ``(source slots, destination slots)`` parallel move of its target
  block, so phis cost one tuple assignment at the edge and nothing in
  the loop body.

Decoded functions, with their generated code, are cached on the
function object itself (``_repro_decoded``) so repeated profiles — the
engine's scheme matrix, the tuner's candidate sweeps — decode and
generate once.  The cache assumes the IR
is no longer mutated once execution starts, which holds for the
repo's pipeline (all transforms run inside ``Workload.compile``,
strictly before profiling); passes that re-enter a function after
executing it must call :func:`invalidate_decode` first.

Equivalence with the reference interpreter — same traces, same memory
events in the same order, same error messages — is pinned by
``tests/interp/test_fast_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional

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
    Jump,
    Load,
    Prefetch,
    Ret,
    Select,
    Store,
    Undef,
)
from .interpreter import UNDEF, InterpError, fptosi

# Integer opcodes of the decoded operation records, read by the code
# generator in :mod:`repro.interp.fast`.
OP_BINOP = 0
OP_GEP = 1
OP_LOAD = 2
OP_CMP = 3
OP_JUMP = 4
OP_CONDBR = 5
OP_STORE = 6
OP_PREFETCH = 7
OP_CAST = 8
OP_SELECT = 9
OP_CALL = 10
OP_ALLOCA = 11
OP_RET = 12
OP_RAISE = 13

#: Decode-cache statistics, mirrored into the ``interp.decode.*`` obs
#: counters by the profiler.
_STATS = {"hits": 0, "misses": 0}

_CACHE_ATTR = "_repro_decoded"


def decode_stats() -> dict:
    """Copy of the process-wide decode-cache hit/miss counters."""
    return dict(_STATS)


def reset_decode_stats() -> None:
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def invalidate_decode(func: Function) -> None:
    """Drop ``func``'s cached decode (call after mutating executed IR)."""
    func.__dict__.pop(_CACHE_ATTR, None)


# -- the binops the generated code calls --------------------------------------
#
# Each function replicates one branch of the reference interpreter's
# ``_binop`` verbatim (coercions, error messages, IEEE division edge
# cases).  The generated code inlines the other binops and every
# compare as operators, and calls these three (and ``fptosi``) by name.


def _op_sdiv(a, b):
    if b == 0:
        raise InterpError("integer division by zero")
    quotient = abs(int(a)) // abs(int(b))
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _op_srem(a, b):
    if b == 0:
        raise InterpError("integer remainder by zero")
    return int(a) - _op_sdiv(a, b) * int(b)


def _op_fdiv(a, b):
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
    return float(a) / float(b)


CAST_FNS = {
    "sext": int, "trunc": int, "bitcast": int, "fptosi": fptosi,
    "sitofp": float, "fpext": float, "fptrunc": float,
}


class DecodedBlock:
    """One basic block as a dense record list plus its counter deltas."""

    __slots__ = ("ops", "count", "pairs")

    def __init__(self, ops: tuple, count: int, pairs: tuple):
        self.ops = ops
        #: Dynamic instructions charged on entry: phis + non-phis up to
        #: and including the terminator (the reference charges exactly
        #: this set every time the block executes).
        self.count = count
        #: ``(opcode_name, count)`` deltas for ``trace.by_opcode``.
        self.pairs = pairs


class DecodedFunction:
    """A function compiled to slot-addressed records, ready to run."""

    __slots__ = ("name", "blocks", "template", "arg_slots", "global_slots",
                 "code", "general_code")

    def __init__(self, name: str, blocks: list, template: list,
                 arg_slots: tuple, global_slots: tuple):
        self.name = name
        self.blocks = blocks
        #: Slot table: each constant's value (UNDEF for ``Undef``),
        #: ``None`` for slots written at run time.
        self.template = template
        self.arg_slots = arg_slots
        #: ``(global name, slot)`` pairs resolved against the
        #: interpreter's binding table at run entry.
        self.global_slots = global_slots
        #: The generated Python function (:mod:`repro.interp.fast`),
        #: built on first run: the typed variant behind its entry
        #: guard, and the general variant the guard falls back to.
        self.code = None
        self.general_code = None


def decode_function(func: Function) -> DecodedFunction:
    """Decode ``func`` (cached on the function object)."""
    cached = func.__dict__.get(_CACHE_ATTR)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    decoded = _decode(func)
    setattr(func, _CACHE_ATTR, decoded)
    return decoded


def _decode(func: Function) -> DecodedFunction:
    template: list = []
    slots: dict[int, int] = {}          # id(value) -> slot
    const_slots: dict[tuple, int] = {}  # (type, value) -> shared slot
    global_slots: list[tuple[str, int]] = []
    global_by_name: dict[str, int] = {}
    undef_slot: Optional[int] = None

    def new_slot(initial=None) -> int:
        template.append(initial)
        return len(template) - 1

    def slot_of(value) -> int:
        nonlocal undef_slot
        key = id(value)
        slot = slots.get(key)
        if slot is not None:
            return slot
        if isinstance(value, Constant):
            # Dedupe by (type, value) so 1 and 1.0 stay distinct but
            # repeated literals share one pre-filled slot.
            ckey = (value.value.__class__, value.value)
            slot = const_slots.get(ckey)
            if slot is None:
                slot = new_slot(value.value)
                const_slots[ckey] = slot
        elif isinstance(value, Undef):
            if undef_slot is None:
                undef_slot = new_slot(UNDEF)
            slot = undef_slot
        elif isinstance(value, GlobalVariable):
            slot = global_by_name.get(value.name)
            if slot is None:
                slot = new_slot()
                global_by_name[value.name] = slot
                global_slots.append((value.name, slot))
        else:
            # Argument or instruction result: written at run time.
            slot = new_slot()
        slots[key] = slot
        return slot

    arg_slots = tuple(slot_of(arg) for arg in func.args)
    block_index = {id(block): i for i, block in enumerate(func.blocks)}
    phis_of = {id(block): block.phis() for block in func.blocks}

    def edge_to(pred, succ) -> tuple:
        """``(target_index, src_slots, dest_slots)`` for the edge, or a
        ``(-1, message)`` raise marker when a phi lacks an incoming."""
        srcs: list[int] = []
        dests: list[int] = []
        for phi in phis_of[id(succ)]:
            value = phi.incoming_for_block(pred)
            if value is None:
                return (-1, "phi %s has no incoming for %s"
                        % (phi.short_name(), pred.name))
            srcs.append(slot_of(value))
            dests.append(slot_of(phi))
        return (block_index[id(succ)], tuple(srcs), tuple(dests))

    blocks: list[DecodedBlock] = []
    for block in func.blocks:
        ops: list[tuple] = []
        pairs: dict[str, int] = {}
        count = len(phis_of[id(block)])
        if count:
            pairs["phi"] = count
        terminated = False
        for inst in block.non_phi_instructions():
            count += 1
            op_name = getattr(inst, "op", None) or inst.opcode
            pairs[op_name] = pairs.get(op_name, 0) + 1
            if isinstance(inst, Jump):
                ops.append((OP_JUMP, edge_to(block, inst.target)))
                terminated = True
                break
            if isinstance(inst, CondBr):
                ops.append((
                    OP_CONDBR, slot_of(inst.cond),
                    edge_to(block, inst.if_true),
                    edge_to(block, inst.if_false),
                ))
                terminated = True
                break
            if isinstance(inst, Ret):
                value_slot = (
                    slot_of(inst.value) if inst.value is not None else -1
                )
                ops.append((OP_RET, value_slot))
                terminated = True
                break
            ops.append(_decode_inst(inst, slot_of))
        if not terminated:
            ops.append((
                OP_RAISE,
                "block %s fell through without terminator" % block.name,
            ))
        blocks.append(DecodedBlock(tuple(ops), count, tuple(pairs.items())))

    # The reference interpreter enters the entry block with no
    # predecessor, so entry phis always fail their incoming lookup.
    entry_phis = phis_of[id(func.blocks[0])] if func.blocks else []
    if entry_phis:
        blocks[0] = DecodedBlock(
            ((OP_RAISE, "phi %s has no incoming for <entry>"
              % entry_phis[0].short_name()),),
            0, (),
        )

    return DecodedFunction(
        func.name, blocks, template, arg_slots, tuple(global_slots),
    )


def _decode_inst(inst, slot_of) -> tuple:
    """One non-terminator instruction to its operation record."""
    if isinstance(inst, BinOp):
        return (OP_BINOP, slot_of(inst), slot_of(inst.lhs),
                slot_of(inst.rhs), inst.op)
    if isinstance(inst, GEP):
        return (OP_GEP, slot_of(inst), slot_of(inst.base),
                slot_of(inst.index), inst.element_size)
    if isinstance(inst, Load):
        return (OP_LOAD, slot_of(inst), slot_of(inst.pointer),
                inst.type.is_float())
    if isinstance(inst, Cmp):
        return (OP_CMP, slot_of(inst), slot_of(inst.lhs),
                slot_of(inst.rhs), inst.pred)
    if isinstance(inst, Store):
        return (OP_STORE, slot_of(inst.value), slot_of(inst.pointer),
                inst.value.type.is_float())
    if isinstance(inst, Prefetch):
        return (OP_PREFETCH, slot_of(inst.pointer))
    if isinstance(inst, Cast):
        return (OP_CAST, slot_of(inst), slot_of(inst.value),
                CAST_FNS[inst.kind])
    if isinstance(inst, Select):
        operands = inst.operands
        return (OP_SELECT, slot_of(inst), slot_of(operands[0]),
                slot_of(operands[1]), slot_of(operands[2]))
    if isinstance(inst, Call):
        dest = slot_of(inst) if not inst.type.is_void() else -1
        return (OP_CALL, dest, inst.callee,
                tuple(slot_of(arg) for arg in inst.operands))
    if isinstance(inst, Alloca):
        return (OP_ALLOCA, slot_of(inst),
                max(8, inst.allocated_type.size_bytes),
                "alloca." + inst.name)
    return (OP_RAISE, "unhandled instruction %r" % inst)
