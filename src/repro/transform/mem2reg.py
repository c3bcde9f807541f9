"""Promote alloca slots to SSA registers (Cytron et al.).

The frontend lowers every local variable to an alloca plus load/store
traffic.  This pass inserts phi nodes at dominance frontiers and rewrites
loads to use the reaching definition, after which scalar evolution can
see induction variables and the access analysis only sees real memory.
"""

from __future__ import annotations

from ..analysis.dominators import DominatorTree
from ..ir import (
    Alloca,
    BasicBlock,
    Function,
    Load,
    Phi,
    Store,
    Undef,
    Value,
)


def promotable_allocas(func: Function) -> list[Alloca]:
    """Allocas whose address never escapes (only direct loads/stores)."""
    result = []
    for inst in func.instructions():
        if not isinstance(inst, Alloca):
            continue
        promotable = True
        for user in inst.uses:
            if isinstance(user, Load):
                continue
            if isinstance(user, Store) and user.pointer is inst:
                continue
            promotable = False
            break
        if promotable:
            result.append(inst)
    return result


def mem2reg(func: Function) -> int:
    """Run promotion; returns the number of promoted allocas."""
    allocas = promotable_allocas(func)
    if not allocas:
        return 0

    dom = DominatorTree(func)
    frontiers = dom.dominance_frontiers()
    alloca_set = {id(a): a for a in allocas}

    # 1. Phi placement: iterated dominance frontier of each alloca's stores.
    # Both block sets hash by address, so they are walked in function
    # block order: each phi takes its name as it is placed, and the
    # printed IR must not depend on the process.
    order = {block: index for index, block in enumerate(func.blocks)}
    phis: dict[int, dict[BasicBlock, Phi]] = {id(a): {} for a in allocas}
    for alloca in allocas:
        def_blocks = {
            u.parent for u in alloca.uses
            if isinstance(u, Store) and u.parent is not None
        }
        worklist = sorted(def_blocks, key=order.__getitem__)
        placed: set[BasicBlock] = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in sorted(frontiers.get(block, ()),
                                         key=order.__getitem__):
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi = Phi(alloca.allocated_type)
                phi.name = func.unique_name(alloca.name or "var")
                frontier_block.insert_front(phi)
                phis[id(alloca)][frontier_block] = phi
                if frontier_block not in def_blocks:
                    worklist.append(frontier_block)

    # 2. Rename along the dominator tree.
    incoming: dict[int, Value] = {}

    def rename(block: BasicBlock, reaching: dict[int, Value]) -> None:
        reaching = dict(reaching)
        for alloca_id, block_phis in phis.items():
            if block in block_phis:
                reaching[alloca_id] = block_phis[block]
        for inst in list(block.instructions):
            if isinstance(inst, Load) and id(inst.pointer) in alloca_set:
                alloca_id = id(inst.pointer)
                value = reaching.get(alloca_id)
                if value is None:
                    value = Undef(inst.type)
                inst.replace_all_uses_with(value)
                inst.erase_from_parent()
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_set:
                reaching[id(inst.pointer)] = inst.value
                inst.erase_from_parent()
        for succ in block.successors():
            for alloca_id, block_phis in phis.items():
                phi = block_phis.get(succ)
                if phi is not None:
                    value = reaching.get(alloca_id)
                    if value is None:
                        value = Undef(phi.type)
                    phi.add_incoming(value, block)
        for child in dom.children.get(block, ()):
            rename(child, reaching)

    rename(func.entry, incoming)

    # 3. Remove the now-dead allocas.
    for alloca in allocas:
        if not alloca.uses:
            alloca.erase_from_parent()

    _prune_dead_phis(func)
    return len(allocas)


def _prune_dead_phis(func: Function) -> None:
    """Remove unused phis and phis that are trivially one value."""
    changed = True
    while changed:
        changed = False
        for block in func.blocks:
            for phi in block.phis():
                if not phi.uses:
                    phi.erase_from_parent()
                    changed = True
                    continue
                distinct = {
                    id(v) for v in phi.operands if v is not phi
                }
                if len(distinct) == 1:
                    replacement = next(
                        v for v in phi.operands if v is not phi
                    )
                    phi.replace_all_uses_with(replacement)
                    phi.erase_from_parent()
                    changed = True
