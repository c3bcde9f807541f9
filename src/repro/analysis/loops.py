"""Natural loop detection and loop nest structure.

A natural loop is identified by a back edge ``latch -> header`` where the
header dominates the latch.  Loops with the same header are merged.  The
result is a loop forest with parent/child (nesting) relations, plus the
queries the access-phase generator needs: loop depth, exiting blocks and
the canonical induction variable, if one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir import BasicBlock, BinOp, Cmp, CondBr, Constant, Function, Phi, Value
from .cfg import predecessors_map
from .dominators import DominatorTree


@dataclass
class InductionVariable:
    """A canonical ``i = phi(init, i + step)`` counter with its exit bound.

    ``bound`` is the value compared against in the loop-exit condition and
    ``predicate`` the comparison keeping the loop running (e.g. ``slt``).
    """

    phi: Phi
    init: Value
    step: Value
    bound: Optional[Value] = None
    predicate: Optional[str] = None


@dataclass
class Loop:
    header: BasicBlock
    blocks: set[BasicBlock] = field(default_factory=set)
    latches: list[BasicBlock] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exiting_blocks(self) -> list[BasicBlock]:
        return [
            b for b in self.blocks
            if any(s not in self.blocks for s in b.successors())
        ]

    def exit_blocks(self) -> list[BasicBlock]:
        exits = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def induction_variable(self) -> Optional[InductionVariable]:
        """Recognize the canonical counter produced by the frontend's loops."""
        for phi in self.header.phis():
            incoming = phi.incoming()
            if len(incoming) != 2:
                continue
            init = step_value = None
            for value, pred in incoming:
                if pred in self.blocks:
                    step_value = value
                else:
                    init = value
            if init is None or step_value is None:
                continue
            if not isinstance(step_value, BinOp) or step_value.op not in ("add", "sub"):
                continue
            if step_value.lhs is phi and isinstance(step_value.rhs, Constant):
                amount = int(step_value.rhs.value)
                step = Constant(
                    step_value.rhs.type,
                    -amount if step_value.op == "sub" else amount,
                )
            elif (
                step_value.op == "add"
                and step_value.rhs is phi
                and isinstance(step_value.lhs, Constant)
            ):
                step = step_value.lhs
            else:
                continue
            iv = InductionVariable(phi=phi, init=init, step=step)
            self._attach_bound(iv)
            return iv
        return None

    def _attach_bound(self, iv: InductionVariable) -> None:
        term = self.header.terminator
        if not isinstance(term, CondBr) or not isinstance(term.cond, Cmp):
            return
        cmp = term.cond
        # Normalize so the induction variable is on the left.
        flip = {"slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
                "eq": "eq", "ne": "ne"}
        if cmp.lhs is iv.phi:
            iv.bound, iv.predicate = cmp.rhs, cmp.pred
        elif cmp.rhs is iv.phi:
            iv.bound, iv.predicate = cmp.lhs, flip[cmp.pred]
        if term.if_false in self.blocks and term.if_true not in self.blocks:
            # The true edge exits; invert the continue-predicate.
            invert = {"slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
                      "eq": "ne", "ne": "eq"}
            if iv.predicate is not None:
                iv.predicate = invert[iv.predicate]

    def __repr__(self) -> str:
        return "<Loop header=%s depth=%d blocks=%d>" % (
            self.header.name, self.depth, len(self.blocks),
        )


class LoopInfo:
    """Loop forest of a function."""

    def __init__(self, func: Function):
        self.func = func
        self.dom = DominatorTree(func)
        self.loops: list[Loop] = []
        self.block_loop: dict[BasicBlock, Loop] = {}
        self._discover()
        self._nest()

    def _discover(self) -> None:
        preds = predecessors_map(self.func)
        by_header: dict[BasicBlock, Loop] = {}
        for block in self.func.blocks:
            for succ in block.successors():
                if self.dom.dominates(succ, block):
                    loop = by_header.setdefault(succ, Loop(header=succ))
                    loop.latches.append(block)
                    self._collect_body(loop, block, preds)
        for loop in by_header.values():
            loop.blocks.add(loop.header)
            self.loops.append(loop)

    def _collect_body(self, loop: Loop, latch: BasicBlock, preds) -> None:
        worklist = [latch]
        while worklist:
            block = worklist.pop()
            if block in loop.blocks or block is loop.header:
                continue
            loop.blocks.add(block)
            worklist.extend(preds[block])

    def _nest(self) -> None:
        # Smaller loops nest inside larger ones sharing blocks.
        ordered = sorted(self.loops, key=lambda l: len(l.blocks))
        for i, inner in enumerate(ordered):
            for outer in ordered[i + 1:]:
                if inner.header in outer.blocks and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break
        for loop in ordered:  # innermost loop owns each block
            for block in loop.blocks:
                if block not in self.block_loop:
                    self.block_loop[block] = loop

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        return self.block_loop.get(block)

    def top_level(self) -> list[Loop]:
        return [l for l in self.loops if l.parent is None]

    def __repr__(self) -> str:
        return "<LoopInfo %s: %d loops>" % (self.func.name, len(self.loops))
