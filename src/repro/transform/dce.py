"""Dead code elimination (aggressive mark-and-sweep).

Roots are the instructions with observable effects: stores, prefetches,
calls and terminators.  Everything not reachable from a root through
use-def edges is dead — including phi/arithmetic cycles left behind by
slicing, which a use-count-only DCE cannot remove.  The access-phase
generator leans on this (Section 5.2.1: "relying on dead code
elimination to remove instructions that are not required").
"""

from __future__ import annotations

from ..ir import Call, Function, Instruction


def is_trivially_dead(inst: Instruction) -> bool:
    return (
        not inst.has_side_effects
        and not inst.is_terminator
        and not inst.uses
    )


def dead_code_elimination(func: Function) -> int:
    """Remove instructions not needed by any effectful root."""
    live: set[int] = set()
    worklist: list[Instruction] = []
    for inst in func.instructions():
        if inst.has_side_effects or inst.is_terminator or isinstance(inst, Call):
            live.add(id(inst))
            worklist.append(inst)
    while worklist:
        current = worklist.pop()
        for op in current.operands:
            if isinstance(op, Instruction) and id(op) not in live:
                live.add(id(op))
                worklist.append(op)

    removed = 0
    for block in func.blocks:
        for inst in list(block.instructions):
            if id(inst) not in live:
                inst.drop_all_references()
                block.remove(inst)
                removed += 1
    return removed
