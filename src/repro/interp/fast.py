"""Fast IR interpreter: each decoded function compiled to Python source.

Replacement for :class:`~repro.interp.interpreter.Interpreter` that
runs the :mod:`~repro.interp.decode` form as generated Python code
instead of walking the IR object graph.  Behaviour is bit-identical —
same traces, same memory side effects, same event stream in the same
order, same error messages — which ``tests/interp/test_fast_equivalence.py``
pins on every bundled workload; only the constant factor changes.

The first run of a function turns its
:class:`~repro.interp.decode.DecodedFunction` into the source of one
Python function, compiles it once and keeps it on the decoded record,
so :func:`~repro.interp.decode.decode_function` stays the only cache:

* SSA slots become locals; int and finite float constants become
  literals, other constants (``inf``, ``nan``) are bound by name;
* each CFG edge's phi moves become one tuple assignment, so they stay
  parallel;
* a block with exactly one incoming edge is inlined at that edge; a
  head block whose inlined successors branch back to it becomes a
  ``while True:`` loop, and the remaining heads are dispatched by
  ``if``/``elif`` on a block index, loop heads first;
* block executions are counted in locals, and ``instructions`` and
  ``by_opcode`` are folded into the trace when the function returns;
* every memory event is appended as the pair ``(code, address)``
  (codes of :data:`~repro.interp.trace.KIND_NAMES`; the layout of
  :mod:`repro.interp.trace`) to one flat list that the caller passes
  in — the list the profiler keeps as the phase's
  :class:`~repro.interp.trace.PhaseTrace` — with no call per event;
* a bounds check keeps the last matched allocation's ``[base, end)``
  in two locals and looks an address up only when it falls outside.

What the generated code may leave out is decided by a fixpoint over
the slots: the Python type each slot's producing op yields (a load
yields ``float`` or ``int`` by its IR type, int binops, compares,
GEPs, allocas, the int casts and ``fptosi`` yield ``int``, float binops
and float casts yield ``float``, a select or phi joins its inputs, a
call result is unknown), and whether the slot may hold ``UNDEF`` — only
if an ``Undef`` constant, a global, a call result or (in the general
variant) an argument feeds it, directly or through any op or phi.  An
``int()`` or ``float()`` is dropped only on an operand of proven type,
an ``UNDEF`` test only on a slot that cannot hold it.  The *typed*
variant assumes each argument is exactly an ``int`` or a ``float`` as
its IR type says; an entry guard checks that and otherwise runs the
*general* variant, which assumes nothing of the arguments and is
generated on first need.

One deliberate deviation: the step limit is enforced at basic-block
granularity (each block's whole count is charged on entry, and the
running total is compared again after each call returns), so a
runaway run may raise :class:`InterpError` a few instructions earlier
than the reference would.  Both abort with the same error; successful
runs are unaffected.  A run that raises does not fold its counters
into the trace: nothing reads a trace after ``run`` raises.
"""

from __future__ import annotations

import math
from typing import Optional

from ..ir import Function, GlobalVariable
from .decode import (
    _CACHE_ATTR,
    OP_ALLOCA,
    OP_BINOP,
    OP_CALL,
    OP_CAST,
    OP_CMP,
    OP_CONDBR,
    OP_GEP,
    OP_JUMP,
    OP_LOAD,
    OP_PREFETCH,
    OP_RET,
    OP_SELECT,
    OP_STORE,
    _op_fdiv,
    _op_sdiv,
    _op_srem,
    decode_function,
)
from .interpreter import UNDEF, ExecutionTrace, InterpError
from .memory import MemoryError_, SimMemory

#: Marker distinguishing "returned void" from "returned None".
_NO_RET = object()

#: Accepted interpreter choices.  ``"replay"`` is this fast core plus
#: cross-scheme trace reuse: when a profiling matrix spans several
#: schemes, each execute phase is interpreted once and the other
#: schemes reuse its recording (see :mod:`repro.interp.trace`); a
#: single-scheme matrix interprets every phase.  ``"reference"`` is
#: the executable specification, which interprets every phase.  Either
#: way each profile is its recording counted by machine replay.
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
    """Executes IR functions through their generated code.

    ``events`` is the flat list every dynamic memory operation extends
    with ``(kind code, address)``; without one, each ``run`` collects
    into a list of its own and drops it.
    """

    def __init__(self, memory: SimMemory,
                 max_steps: int = 200_000_000,
                 events: Optional[list] = None):
        self.memory = memory
        self.max_steps = max_steps
        self.globals: dict[str, int] = {}
        self.events = events

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
        code = decoded.code or _typed_code(decoded, func)
        events = self.events if self.events is not None else []
        before = len(events)
        memory = self.memory
        # An empty cached region makes the first access look its
        # region up; an unbounded one disables the check.
        region = (0, 0) if memory.check_bounds else (-math.inf, math.inf)
        ctx = (events, memory._cells, self._bounds, memory.alloc,
               self.globals, self.max_steps) + region
        result = code(ctx, trace, *args)
        trace.mem_events += (len(events) - before) // 2
        if result is not _NO_RET:
            trace.return_value = result
        return trace

    def _bounds(self, address: int, access: str) -> tuple:
        """``(base, end)`` of the allocation holding ``address``."""
        region = self.memory.region_of(address)
        if region is None:
            raise MemoryError_(
                "%s unallocated address 0x%x" % (access, address)
            )
        return region.base, region.end


# -- run-time helpers the generated code calls ---------------------------------


def _code_of(func: Function):
    """A callee's typed entry point (decoded and generated on first
    call, so a recursive function's code is built while it runs)."""
    decoded = func.__dict__.get(_CACHE_ATTR)
    if decoded is None:
        decoded = decode_function(func)
    return decoded.code or _typed_code(decoded, func)


def _typed_code(decoded, func: Function):
    decoded.code = _generate(decoded, tuple(
        float if arg.type.is_float() else int for arg in func.args
    ))
    return decoded.code


def _general_code(decoded):
    if decoded.general_code is None:
        decoded.general_code = _generate(decoded, None)
    return decoded.general_code


def _global(bound: dict, name: str):
    try:
        return bound[name]
    except KeyError:
        raise InterpError("unbound global @%s" % name) from None


def _fold(trace: ExecutionTrace, instructions: int, deltas: tuple) -> None:
    trace.instructions = instructions
    by_opcode = trace.by_opcode
    for name, count in deltas:
        if count:
            by_opcode[name] = by_opcode.get(name, 0) + count


# -- code generation -----------------------------------------------------------

_INT_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
            "xor": "^", "shl": "<<", "ashr": ">>"}
_FLOAT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
#: Binops (and ``fptosi``) whose zero, sign and non-finite corners
#: stay in functions, bound in the generated code by these names.
_CALLED_OPS = {"sdiv": ("_sdiv", _op_sdiv), "srem": ("_srem", _op_srem),
               "fdiv": ("_fdiv", _op_fdiv)}
_FLOAT_RESULTS = ("fadd", "fsub", "fmul", "fdiv")
_CMP_OPS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
            "sge": ">="}
#: Lattice top for slot types: "any Python value".
_ANY = object()
#: Inlining depth past which a block is dispatched as a head instead
#: (keeps the source well inside the parser's nesting limits).
_MAX_DEPTH = 40
#: Placeholder for a jump to another head: ``break`` inside a looping
#: head, nothing in a straight-line one.
_BREAK = None
_STEP = "interpreter step limit exceeded"


def _join(a, b):
    if a is None:
        return b
    if b is None or a is b:
        return a
    return _ANY


def _generate(decoded, arg_types: Optional[tuple]):
    """Compile ``decoded`` to one Python function.

    ``arg_types`` gives each argument's proven Python type (the typed
    variant, entered through a guard) or is ``None`` (the general
    variant, which proves nothing of its arguments).
    """
    gen = _Codegen(decoded, arg_types)
    namespace = gen.namespace
    exec(compile(gen.source(), "<ir %s>" % decoded.name, "exec"), namespace)
    return namespace["run"]


class _Codegen:
    def __init__(self, decoded, arg_types: Optional[tuple]):
        self.decoded = decoded
        self.blocks = decoded.blocks
        self.arg_types = arg_types
        self.namespace = {
            "UNDEF": UNDEF, "InterpError": InterpError, "_NO_RET": _NO_RET,
            "_STEP": _STEP, "_fold": _fold, "_global": _global,
            "_code_of": _code_of, "_general": _general_code, "D": decoded,
        }
        self.callees: dict[int, str] = {}
        self.reachable = self._reach()
        self.names, self.kind, self.undef = self._analyse()

    # -- facts ---------------------------------------------------------------

    def _reach(self) -> list:
        seen = {0} if self.blocks else set()
        stack = list(seen)
        while stack:
            for edge in self._edges(self.blocks[stack.pop()]):
                if edge[0] >= 0 and edge[0] not in seen:
                    seen.add(edge[0])
                    stack.append(edge[0])
        return sorted(seen)

    @staticmethod
    def _edges(block) -> tuple:
        term = block.ops[-1]
        if term[0] == OP_JUMP:
            return (term[1],)
        if term[0] == OP_CONDBR:
            return (term[2], term[3])
        return ()

    def _analyse(self):
        """Slot names, then the (type, may-be-UNDEF) fixpoint."""
        decoded = self.decoded
        kind: dict = {}
        undef: set = set()
        written = {slot for _, slot in decoded.global_slots}
        kind.update(dict.fromkeys(written, _ANY))
        undef.update(written)
        for index, slot in enumerate(decoded.arg_slots):
            written.add(slot)
            if self.arg_types is None:
                kind[slot] = _ANY
                undef.add(slot)
            else:
                kind[slot] = self.arg_types[index]
        ops = [op for b in self.reachable for op in self.blocks[b].ops]
        edges = [edge for b in self.reachable
                 for edge in self._edges(self.blocks[b]) if edge[0] >= 0]
        for op in ops:
            if op[0] in _DEFINES and op[1] >= 0:
                written.add(op[1])
        for _, _, dests in edges:
            written.update(dests)
        names = {}
        for slot, value in enumerate(decoded.template):
            if slot in written or value is None:
                names[slot] = "v%d" % slot
            elif value is UNDEF:
                names[slot] = "UNDEF"
                undef.add(slot)
            else:
                kind[slot] = type(value) if type(value) in (int, float) \
                    else _ANY
                names[slot] = _literal(value) or self._bind("C%d" % slot,
                                                           value)
        changed = True
        while changed:
            changed = False
            facts = [_transfer(op, kind, undef) for op in ops]
            for _, srcs, dests in edges:
                facts.extend((d, kind.get(s), s in undef)
                             for s, d in zip(srcs, dests))
            for dest, ty, may_undef in facts:
                if dest < 0:
                    continue
                joined = _join(kind.get(dest), ty)
                if joined is not kind.get(dest):
                    kind[dest] = joined
                    changed = True
                if may_undef and dest not in undef:
                    undef.add(dest)
                    changed = True
        return names, kind, undef

    def _bind(self, name: str, value) -> str:
        self.namespace[name] = value
        return name

    # -- operand text --------------------------------------------------------

    def _int(self, slot: int) -> str:
        name = self.names[slot]
        return name if self.kind.get(slot) is int else "int(%s)" % name

    def _float(self, slot: int) -> str:
        name = self.names[slot]
        return name if self.kind.get(slot) is float else "float(%s)" % name

    def _undef_test(self, *slots) -> str:
        return " or ".join("%s is UNDEF" % self.names[slot]
                           for slot in slots if slot in self.undef)

    def _assign(self, out, depth, dest, expr, *operands) -> None:
        test = self._undef_test(*operands)
        if test:
            expr = "UNDEF if %s else (%s)" % (test, expr)
        out.append((depth, "%s = %s" % (self.names[dest], expr)))

    # -- source --------------------------------------------------------------

    def source(self) -> str:
        decoded = self.decoded
        blocks = self.blocks
        incoming = dict.fromkeys(self.reachable, 0)
        for b in self.reachable:
            for edge in self._edges(blocks[b]):
                if edge[0] >= 0:
                    incoming[edge[0]] += 1
        self.heads = [b for b in self.reachable
                      if b == 0 or incoming[b] != 1]
        arms = []
        for head in self.heads:  # grows as deep blocks are promoted
            self.looped = False
            body: list = []
            self._block(head, 0, head, body)
            arms.append((head, self.looped, body))
        args = ", ".join(self.names[s] for s in decoded.arg_slots)
        lines = ["def run(ctx, trace%s):" % (", " + args if args else "")]
        if self.arg_types is not None and args:
            test = " or ".join(
                "type(%s) is not %s" % (self.names[slot], ty.__name__)
                for slot, ty in zip(decoded.arg_slots, self.arg_types)
            )
            lines.append("    if %s: return _general(D)(ctx, trace, %s)"
                         % (test, args))
        lines.append("    ev, cells, bounds, alloc, glob, lim, rb, rend = ctx")
        for name, slot in decoded.global_slots:
            lines.append("    v%d = _global(glob, %r)" % (slot, name))
        lines.append("    t0 = trace.instructions")
        lines.append("    %s = 0" % " = ".join(
            ["n"] + ["k%d" % b for b in self.reachable]))
        if len(arms) == 1:
            _, looped, body = arms[0]
            lines.extend(_indent(body, 1, looped))
        else:
            lines.append("    b = 0")
            lines.append("    while True:")
            arms.sort(key=lambda arm: not arm[1])
            for position, (head, looped, body) in enumerate(arms):
                if position == len(arms) - 1:
                    lines.append("        else:")
                else:
                    lines.append("        %s b == %d:"
                                 % ("if" if position == 0 else "elif", head))
                lines.extend(_indent(body, 3, looped))
        return "\n".join(lines) + "\n"

    def _block(self, index: int, depth: int, head: int, out: list) -> None:
        block = self.blocks[index]
        out.append((depth, "k%d += 1" % index))
        out.append((depth, "n += %d" % block.count))
        out.append((depth, "if n > lim: raise InterpError(_STEP)"))
        for op in block.ops:
            self._op(op, depth, head, out)

    def _op(self, op, depth, head, out) -> None:
        code = op[0]
        names = self.names
        if code == OP_BINOP:
            name = op[4]
            a, b = op[2], op[3]
            if name in _INT_OPS:
                expr = "%s %s %s" % (self._int(a), _INT_OPS[name],
                                     self._int(b))
            elif name in _FLOAT_OPS:
                expr = "%s %s %s" % (self._float(a), _FLOAT_OPS[name],
                                     self._float(b))
            else:
                expr = "%s(%s, %s)" % (self._bind(*_CALLED_OPS[name]),
                                       names[a], names[b])
            self._assign(out, depth, op[1], expr, a, b)
        elif code == OP_GEP:
            self._assign(out, depth, op[1], "%s + %s * %d" % (
                self._int(op[2]), self._int(op[3]), op[4]), op[2], op[3])
        elif code == OP_LOAD:
            dest, ptr, is_float = op[1:]
            address, lines = self._address(ptr, 0)
            lines.append(self._check(address, "load from"))
            lines.append("%s = %s(cells.get(%s, %s))" % (
                names[dest], "float" if is_float else "int", address,
                "0.0" if is_float else "0"))
            if ptr in self.undef:
                out.append((depth, "if %s is UNDEF: %s = UNDEF"
                            % (names[ptr], names[dest])))
                out.append((depth, "else:"))
                depth += 1
            out.extend((depth, line) for line in lines)
        elif code == OP_CMP:
            self._assign(out, depth, op[1], "1 if %s %s %s else 0" % (
                names[op[2]], _CMP_OPS[op[4]], names[op[3]]), op[2], op[3])
        elif code == OP_STORE:
            value, ptr, is_float = op[1:]
            address, lines = self._address(ptr, 1)
            convert = self._float(value) if is_float else self._int(value)
            write = [self._check(address, "store to"),
                     "cells[%s] = %s" % (address, convert)]
            if value in self.undef:
                lines.append("if %s is not UNDEF:" % names[value])
                write = ["    " + line for line in write]
            lines.extend(write)
            if ptr in self.undef:
                out.append((depth, "if %s is not UNDEF:" % names[ptr]))
                depth += 1
            out.extend((depth, line) for line in lines)
        elif code == OP_PREFETCH:
            ptr = op[1]
            event = "ev += (2, %s)" % self._int(ptr)
            if ptr in self.undef:
                out.append((depth, "if %s is UNDEF: "
                            "trace.dropped_prefetches += 1" % names[ptr]))
                out.append((depth, "else: " + event))
            else:
                out.append((depth, event))
        elif code == OP_CAST:
            fn = op[3]
            expr = (self._int(op[2]) if fn is int
                    else self._float(op[2]) if fn is float
                    else "%s(%s)" % (self._bind("fptosi", fn), names[op[2]]))
            self._assign(out, depth, op[1], expr, op[2])
        elif code == OP_SELECT:
            self._assign(out, depth, op[1], "%s if %s else %s" % (
                names[op[3]], names[op[2]], names[op[4]]), op[2])
        elif code == OP_CALL:
            dest, callee, arg_slots = op[1:]
            target = self.callees.get(id(callee))
            if target is None:
                target = self._bind("F%d" % len(self.callees), callee)
                self.callees[id(callee)] = target
            call = "_code_of(%s)(ctx, trace%s)" % (target, "".join(
                ", " + names[s] for s in arg_slots))
            out.append((depth, "trace.instructions = t0 + n"))
            if dest >= 0:
                out.append((depth, "%s = %s" % (names[dest], call)))
                out.append((depth, "if %s is _NO_RET: %s = None"
                            % (names[dest], names[dest])))
            else:
                out.append((depth, call))
            out.append((depth, "n = trace.instructions - t0"))
            out.append((depth, "if n > lim: raise InterpError(_STEP)"))
        elif code == OP_ALLOCA:
            out.append((depth, "%s = alloc(%d, %r)"
                        % (names[op[1]], op[2], op[3])))
        elif code == OP_JUMP:
            self._edge(op[1], depth, head, out)
        elif code == OP_CONDBR:
            if op[1] in self.undef:
                out.append((depth, "if %s is UNDEF: raise InterpError(%r)" % (
                    names[op[1]], "branch on undef in %s" % self.decoded.name,
                )))
            out.append((depth, "if %s:" % names[op[1]]))
            self._edge(op[2], depth + 1, head, out)
            out.append((depth, "else:"))
            self._edge(op[3], depth + 1, head, out)
        elif code == OP_RET:
            out.append((depth, "_fold(trace, t0 + n, %s)" % self._deltas()))
            out.append((depth, "return %s"
                        % (names[op[1]] if op[1] >= 0 else "_NO_RET")))
        else:  # OP_RAISE
            out.append((depth, "raise InterpError(%r)" % op[1]))

    def _address(self, ptr: int, kind: int) -> tuple:
        """``(address text, lines)``: the lines coerce the address to
        ``x`` unless it is a proven int, then append the event."""
        if self.kind.get(ptr) is int:
            address, lines = self.names[ptr], []
        else:
            address, lines = "x", ["x = int(%s)" % self.names[ptr]]
        lines.append("ev += (%d, %s)" % (kind, address))
        return address, lines

    @staticmethod
    def _check(address: str, access: str) -> str:
        return ("if not rb <= %s < rend: rb, rend = bounds(%s, %r)"
                % (address, address, access))

    def _edge(self, edge, depth: int, head: int, out: list) -> None:
        target = edge[0]
        if target < 0:
            out.append((depth, "raise InterpError(%r)" % edge[1]))
            return
        moves = [(dest, src) for src, dest in zip(edge[1], edge[2])
                 if src != dest]
        if moves:
            out.append((depth, "%s = %s" % (
                ", ".join(self.names[dest] for dest, _ in moves),
                ", ".join(self.names[src] for _, src in moves),
            )))
        if target == head:
            out.append((depth, "continue"))
            self.looped = True
        elif target in self.heads or depth >= _MAX_DEPTH:
            if target not in self.heads:
                self.heads.append(target)
            out.append((depth, "b = %d" % target))
            out.append((depth, _BREAK))
        else:
            self._block(target, depth, head, out)

    def _deltas(self) -> str:
        terms: dict = {}
        for b in self.reachable:
            for name, count in self.blocks[b].pairs:
                terms.setdefault(name, []).append(
                    "k%d" % b if count == 1 else "k%d * %d" % (b, count))
        return "(%s)" % "".join(
            "(%r, %s), " % (name, " + ".join(parts))
            for name, parts in terms.items()
        )


#: Records whose ``op[1]`` is a destination slot.
_DEFINES = (OP_BINOP, OP_GEP, OP_LOAD, OP_CMP, OP_CAST, OP_SELECT,
            OP_CALL, OP_ALLOCA)


def _transfer(op, kind: dict, undef: set) -> tuple:
    """``(dest, type, may be UNDEF)`` of one record (dest -1: none)."""
    code = op[0]
    if code == OP_BINOP:
        ty = float if op[4] in _FLOAT_RESULTS else int
        return op[1], ty, op[2] in undef or op[3] in undef
    if code in (OP_GEP, OP_CMP):
        return op[1], int, op[2] in undef or op[3] in undef
    if code == OP_LOAD:
        return op[1], float if op[3] else int, op[2] in undef
    if code == OP_CAST:
        return op[1], float if op[3] is float else int, op[2] in undef
    if code == OP_SELECT:
        return (op[1], _join(kind.get(op[3]), kind.get(op[4])),
                op[2] in undef or op[3] in undef or op[4] in undef)
    if code == OP_CALL:
        return op[1], _ANY, True
    if code == OP_ALLOCA:
        return op[1], int, False
    return -1, None, False


def _literal(value) -> Optional[str]:
    """Source text for an int or finite float constant, else ``None``."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        text = repr(value)
        return "(%s)" % text if text.startswith("-") else text
    return None


def _indent(body: list, base: int, looped: bool) -> list:
    """Render one head's ``(depth, text)`` lines at ``base`` levels,
    inside a ``while True:`` when the head loops."""
    lines = []
    if looped:
        lines.append("    " * base + "while True:")
        base += 1
    for depth, text in body:
        if text is _BREAK:
            if not looped:
                continue
            text = "break"
        lines.append("    " * (base + depth) + text)
    return lines
