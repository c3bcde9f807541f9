"""Whole-function cloning (step 2 of the access-generation algorithm).

"Create an identical clone of the task.  By creating a copy, all local
variables of the original task are privatized in the clone access
version." (Section 5.2.2)
"""

from __future__ import annotations

from typing import Optional

from ..ir import BasicBlock, Function, Module, Phi, Value


def clone_function(func: Function, new_name: str,
                   module: Optional[Module] = None) -> Function:
    """Deep-copy ``func`` under ``new_name``; optionally add to ``module``."""
    clone = Function(
        new_name,
        [a.type for a in func.args],
        [a.name for a in func.args],
        return_type=func.return_type,
        is_task=func.is_task,
    )
    value_map: dict[int, Value] = {}
    for old_arg, new_arg in zip(func.args, clone.args):
        value_map[id(old_arg)] = new_arg

    block_map: dict[int, BasicBlock] = {}
    for block in func.blocks:
        block_map[id(block)] = clone.append_block(BasicBlock(block.name))

    for block in func.blocks:
        new_block = block_map[id(block)]
        for inst in block.instructions:
            new_inst = inst.clone()
            value_map[id(inst)] = new_inst
            new_block.append(new_inst)

    for block in func.blocks:
        new_block = block_map[id(block)]
        for new_inst in new_block.instructions:
            for op in list(new_inst.operands):
                mapped = value_map.get(id(op))
                if mapped is not None:
                    new_inst.replace_operand(op, mapped)
            if isinstance(new_inst, Phi):
                new_inst.incoming_blocks = [
                    block_map.get(id(b), b) for b in new_inst.incoming_blocks
                ]
            if hasattr(new_inst, "target"):
                new_inst.target = block_map[id(new_inst.target)]
            if hasattr(new_inst, "if_true"):
                new_inst.if_true = block_map[id(new_inst.if_true)]
                new_inst.if_false = block_map[id(new_inst.if_false)]

    if module is not None:
        module.add_function(clone)
    return clone
