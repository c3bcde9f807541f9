"""Functions and modules of the repro IR."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import Type, VOID
from .values import Argument, GlobalVariable


class Function:
    """A function: typed arguments plus a list of basic blocks.

    Functions marked ``is_task`` are the unit the DAE transformation
    operates on (Section 3.1: a task is a well-defined section of code
    operating on a small working set).
    """

    def __init__(
        self,
        name: str,
        arg_types: Iterable[Type],
        arg_names: Iterable[str],
        return_type: Type = VOID,
        is_task: bool = False,
    ):
        self.name = name
        self.return_type = return_type
        self.is_task = is_task
        self.args = [
            Argument(ty, arg_name, i)
            for i, (ty, arg_name) in enumerate(zip(arg_types, arg_names))
        ]
        self.blocks: list[BasicBlock] = []
        self.parent: Optional["Module"] = None
        self._name_counter = itertools.count()

    # -- blocks -----------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError("function %s has no blocks" % self.name)
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(self.unique_name(name or "bb"), parent=self)
        self.blocks.append(block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        for inst in list(block.instructions):
            inst.erase_from_parent()
        self.blocks.remove(block)
        block.parent = None

    def block_named(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError("no block named %s in %s" % (name, self.name))

    # -- naming -----------------------------------------------------------------

    def unique_name(self, base: str) -> str:
        existing = {b.name for b in self.blocks}
        existing.update(i.name for b in self.blocks for i in b.instructions if i.name)
        if base and base not in existing:
            return base
        while True:
            candidate = "%s.%d" % (base, next(self._name_counter))
            if candidate not in existing:
                return candidate

    # -- iteration ----------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block

    def arg_named(self, name: str) -> Argument:
        for arg in self.args:
            if arg.name == name:
                return arg
        raise KeyError("no argument named %s in %s" % (name, self.name))

    def __repr__(self) -> str:
        return "<Function @%s (%d blocks)>" % (self.name, len(self.blocks))


class Module:
    """A compilation unit: functions plus global variables."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError("duplicate function %s" % func.name)
        func.parent = self
        self.functions[func.name] = func
        return func

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise ValueError("duplicate global %s" % gv.name)
        self.globals[gv.name] = gv
        return gv

    def function(self, name: str) -> Function:
        return self.functions[name]

    def tasks(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_task]

    def __repr__(self) -> str:
        return "<Module %s (%d functions)>" % (self.name, len(self.functions))
