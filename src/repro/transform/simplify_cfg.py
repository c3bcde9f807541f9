"""CFG simplification.

Used on its own (cleanup after inlining/DCE) and as the heart of the
skeleton generator's "simplified CFG" step (Section 5.2.2): after the
access slice drops branch conditions, constant-folded branches and block
merging collapse the task body to plain loop control flow.
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..ir import BinOp, Cast, Cmp, CondBr, Constant, Function, Jump, Select


def simplify_cfg(func: Function) -> int:
    """Iteratively simplify; returns a count of rewrites performed."""
    total = 0
    changed = True
    while changed:
        changed = False
        changed |= _fold_constant_instructions(func) > 0
        changed |= _fold_constant_branches(func) > 0
        changed |= remove_unreachable_blocks(func) > 0
        changed |= _fold_single_pred_phis(func) > 0
        changed |= _merge_straightline_blocks(func) > 0
        changed |= _skip_forwarding_blocks(func) > 0
        if changed:
            total += 1
    return total


def _fold_constant_instructions(func: Function) -> int:
    """Evaluate cmp/binop/cast/select over constant operands."""
    from ..interp.interpreter import _binop, _cast, _compare

    count = 0
    for block in func.blocks:
        for inst in list(block.instructions):
            if inst.uses == [] and inst.type.is_void():
                continue
            ops = inst.operands
            if not ops or not all(isinstance(o, Constant) for o in ops):
                continue
            try:
                if isinstance(inst, Cmp):
                    value = Constant(
                        inst.type,
                        int(_compare(inst.pred, ops[0].value, ops[1].value)),
                    )
                elif isinstance(inst, BinOp):
                    value = Constant(
                        inst.type, _binop(inst.op, ops[0].value, ops[1].value)
                    )
                elif isinstance(inst, Cast):
                    value = Constant(inst.type, _cast(inst.kind, ops[0].value,
                                                      inst.type))
                elif isinstance(inst, Select):
                    value = ops[1] if ops[0].value else ops[2]
                else:
                    continue
            except Exception:
                continue  # division by zero etc.: leave for runtime
            inst.replace_all_uses_with(value)
            inst.erase_from_parent()
            count += 1
    return count


def _fold_constant_branches(func: Function) -> int:
    count = 0
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondBr) and isinstance(term.cond, Constant):
            taken = term.if_true if term.cond.value else term.if_false
            not_taken = term.if_false if term.cond.value else term.if_true
            if not_taken is not taken:
                for phi in not_taken.phis():
                    phi.remove_incoming_block(block)
            term.erase_from_parent()
            block.append(Jump(taken))
            count += 1
        elif isinstance(term, CondBr) and term.if_true is term.if_false:
            target = term.if_true
            term.erase_from_parent()
            block.append(Jump(target))
            count += 1
    return count


def _fold_single_pred_phis(func: Function) -> int:
    count = 0
    for block in func.blocks:
        preds = block.predecessors()
        if len(preds) != 1:
            continue
        for phi in block.phis():
            value = phi.incoming_for_block(preds[0])
            if value is not None:
                phi.replace_all_uses_with(value)
                phi.erase_from_parent()
                count += 1
    return count


def _merge_straightline_blocks(func: Function) -> int:
    """Merge B into A when A->B is the only edge in and out."""
    count = 0
    for block in list(func.blocks):
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        succ = term.target
        if succ is block or succ is func.entry:
            continue
        if len(succ.predecessors()) != 1:
            continue
        if succ.phis():
            continue  # single-pred phis are folded first
        term.erase_from_parent()
        for inst in list(succ.instructions):
            succ.remove(inst)
            inst.parent = block
            block.instructions.append(inst)
        # Phis in successors of succ must now name `block` as predecessor.
        for after in block.successors():
            for phi in after.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is succ:
                        phi.incoming_blocks[i] = block
        func.blocks.remove(succ)
        succ.parent = None
        count += 1
    return count


def _skip_forwarding_blocks(func: Function) -> int:
    """Route edges around blocks that only contain an unconditional jump."""
    count = 0
    for block in list(func.blocks):
        if block is func.entry or len(block.instructions) != 1:
            continue
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        target = term.target
        if target is block or target.phis():
            # Retargeting into a phi-bearing block needs incoming rewrites
            # that can collide when a predecessor already branches there;
            # leave those to block merging.
            continue
        preds = block.predecessors()
        if not preds:
            continue
        for pred in preds:
            pred_term = pred.terminator
            pred_term.replace_successor(block, target)  # type: ignore[union-attr]
        func.remove_block(block)
        count += 1
    return count
