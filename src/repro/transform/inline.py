"""Function inlining.

Step 1 of the access-generation algorithm (Section 5.2.2): "Inline
function calls in the task, when possible.  If any function calls cannot
be inlined, we do not generate an access version."  Recursion (and an
explicit ``no_inline`` marker, standing in for functions whose bodies the
compiler cannot see) makes a call non-inlinable.
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    BasicBlock,
    Call,
    Function,
    Jump,
    Phi,
    Ret,
    Undef,
    Value,
)


class InlineError(Exception):
    """Raised when a call that must be inlined cannot be."""


def is_recursive(func: Function, _seen: Optional[set] = None) -> bool:
    seen = _seen if _seen is not None else set()
    if id(func) in seen:
        return True
    seen.add(id(func))
    for inst in func.instructions():
        if isinstance(inst, Call) and is_recursive(inst.callee, set(seen)):
            return True
    return False


def can_inline(callee: Function) -> bool:
    if getattr(callee, "no_inline", False):
        return False
    if not callee.blocks:
        return False
    return not is_recursive(callee)


def inline_call(call: Call) -> None:
    """Inline one call site; the callee body is cloned into the caller."""
    caller = call.function
    callee = call.callee
    if caller is None:
        raise InlineError("call has no parent function")
    if not can_inline(callee):
        raise InlineError("cannot inline @%s" % callee.name)

    call_block = call.parent
    assert call_block is not None

    # Split the containing block after the call.
    call_index = call_block.instructions.index(call)
    after_block = caller.add_block(call_block.name + ".cont")
    after_block.take_tail(call_block, call_index + 1)
    # Successors' phis must see the new block as predecessor.
    for succ in after_block.successors():
        for phi in succ.phis():
            for i, pred in enumerate(phi.incoming_blocks):
                if pred is call_block:
                    phi.incoming_blocks[i] = after_block

    # Clone callee blocks.
    value_map: dict[int, Value] = {}
    for arg, actual in zip(callee.args, call.args):
        value_map[id(arg)] = actual
    block_map: dict[int, BasicBlock] = {}
    for block in callee.blocks:
        clone = caller.add_block("%s.%s" % (callee.name, block.name))
        block_map[id(block)] = clone
    return_values: list[tuple[Value, BasicBlock]] = []
    for block in callee.blocks:
        clone_block = block_map[id(block)]
        for inst in block.instructions:
            if isinstance(inst, Ret):
                if inst.value is not None:
                    return_values.append((inst.value, clone_block))
                else:
                    return_values.append((None, clone_block))  # type: ignore[arg-type]
                clone_block.append(Jump(after_block))
                continue
            clone = inst.clone()
            clone.name = caller.unique_name(inst.name) if inst.name else ""
            value_map[id(inst)] = clone
            clone_block.append(clone)

    # Remap operands, branch targets and phi incoming blocks in the clones.
    for block in callee.blocks:
        clone_block = block_map[id(block)]
        for clone in clone_block.instructions:
            for op in list(clone.operands):
                mapped = value_map.get(id(op))
                if mapped is not None:
                    clone.replace_operand(op, mapped)
            if isinstance(clone, Phi):
                clone.incoming_blocks = [
                    block_map.get(id(b), b) for b in clone.incoming_blocks
                ]
            if hasattr(clone, "target"):
                clone.target = block_map.get(id(clone.target), clone.target)
            if hasattr(clone, "if_true"):
                clone.if_true = block_map.get(id(clone.if_true), clone.if_true)
                clone.if_false = block_map.get(id(clone.if_false), clone.if_false)

    # Wire control flow: call block jumps into the cloned entry.
    entry_clone = block_map[id(callee.entry)]
    call.erase_from_parent()
    call_block.append(Jump(entry_clone))

    # The call's value becomes a phi over cloned return values.
    if not call.type.is_void() and call.uses:
        mapped_returns = [
            (value_map.get(id(v), v), b) for v, b in return_values if v is not None
        ]
        if len(mapped_returns) == 1:
            call.replace_all_uses_with(mapped_returns[0][0])
        elif mapped_returns:
            phi = Phi(call.type)
            phi.name = caller.unique_name("retval")
            after_block.insert_front(phi)
            for value, block in mapped_returns:
                phi.add_incoming(value, block)
            call.replace_all_uses_with(phi)
        else:
            call.replace_all_uses_with(Undef(call.type))


def inline_all_calls(func: Function, max_rounds: int = 32) -> int:
    """Inline every call in ``func``; returns the number of sites inlined.

    Raises :class:`InlineError` when a call cannot be inlined — the caller
    (the access-phase driver) treats that as "no access version".
    """
    inlined = 0
    for _ in range(max_rounds):
        calls = [i for i in func.instructions() if isinstance(i, Call)]
        if not calls:
            return inlined
        for call in calls:
            inline_call(call)
            inlined += 1
    raise InlineError("inlining did not converge in %s" % func.name)
