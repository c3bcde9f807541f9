"""Control-flow graph utilities: orders, reachability, edge maps."""

from __future__ import annotations

from ..ir import BasicBlock, Function, predecessors_map

__all__ = ["predecessors_map", "reachable_blocks", "remove_unreachable_blocks",
           "reverse_postorder", "successors_map"]


def successors_map(func: Function) -> dict[BasicBlock, list[BasicBlock]]:
    return {block: block.successors() for block in func.blocks}


def reachable_blocks(func: Function) -> set[BasicBlock]:
    seen: set[BasicBlock] = set()
    worklist = [func.entry]
    while worklist:
        block = worklist.pop()
        if block in seen:
            continue
        seen.add(block)
        worklist.extend(block.successors())
    return seen


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (defs before uses)."""
    visited: set[BasicBlock] = set()
    postorder: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(block)
        while stack:
            current, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(current)
                stack.pop()

    visit(func.entry)
    return list(reversed(postorder))


def remove_unreachable_blocks(func: Function) -> int:
    """Delete unreachable blocks (fixing phis); returns how many were removed."""
    reachable = reachable_blocks(func)
    dead = [b for b in func.blocks if b not in reachable]
    for block in dead:
        for succ in block.successors():
            if succ in reachable:
                for phi in succ.phis():
                    phi.remove_incoming_block(block)
        func.remove_block(block)
    return len(dead)
