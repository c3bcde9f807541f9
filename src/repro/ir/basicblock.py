"""Basic blocks and their instruction lists."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .instructions import Instruction, Phi, Terminator

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


def count_name(names: dict[str, int], name: str) -> None:
    """One more block or instruction of a function bears ``name``."""
    names[name] = names.get(name, 0) + 1


def uncount_name(names: dict[str, int], name: str) -> None:
    """One fewer bears ``name``; at none it leaves the count, free again."""
    left = names[name] - 1
    if left:
        names[name] = left
    else:
        del names[name]


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    ``parent`` is set exactly while the block sits in its function's
    ``blocks`` (:meth:`Function.append_block` to :meth:`Function.remove_block`).
    ``instructions`` changes only through the methods below, which keep
    the function's live-name count in step (see :meth:`Function.unique_name`).
    """

    def __init__(self, name: str):
        self.name = name
        self.parent: Optional["Function"] = None
        self.instructions: list[Instruction] = []

    # -- structure ----------------------------------------------------------------

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]  # type: ignore[return-value]
        return None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def non_phi_instructions(self) -> list[Instruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    # -- mutation -------------------------------------------------------------------

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        if inst.name and self.parent is not None:
            count_name(self.parent._names, inst.name)
        return inst

    def append(self, inst: Instruction) -> Instruction:
        if self.terminator is not None:
            raise ValueError("appending past terminator in block %s" % self.name)
        return self.insert(len(self.instructions), inst)

    def insert_front(self, inst: Instruction) -> Instruction:
        """Insert after any leading phis (used for allocas and phi lowering)."""
        return self.insert(len(self.phis()) if not isinstance(inst, Phi) else 0,
                           inst)

    def insert_before(self, inst: Instruction, before: Instruction) -> Instruction:
        return self.insert(self.instructions.index(before), inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None
        if inst.name and self.parent is not None:
            uncount_name(self.parent._names, inst.name)

    def take_tail(self, source: "BasicBlock", start: int = 0) -> None:
        """Move ``source.instructions[start:]`` to the end of this block.

        Both blocks belong to one function, so no name stops being live.
        """
        moved = source.instructions[start:]
        del source.instructions[start:]
        for inst in moved:
            inst.parent = self
        self.instructions.extend(moved)

    # -- iteration ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Instruction]:
        return iter(list(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return "<BasicBlock %%%s (%d insts)>" % (self.name, len(self.instructions))
