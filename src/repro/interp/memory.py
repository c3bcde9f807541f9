"""Flat simulated memory for the IR interpreter.

A bump allocator hands out byte addresses; values are stored per
(aligned) address.  Addresses are plain integers, so pointer arithmetic
in the IR (GEPs) works on real numbers the cache model can index.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional

from ..ir import Type


class MemoryError_(Exception):
    """Raised on out-of-bounds or unallocated access."""


class Allocation:
    """One named region of simulated memory."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:
        return "<Allocation %s [0x%x, 0x%x)>" % (self.name, self.base, self.end)


class SimMemory:
    """Sparse word-granular memory with allocation tracking."""

    def __init__(self, base: int = 0x10000, check_bounds: bool = True):
        self._next = base
        self._cells: dict[int, float | int] = {}
        self.allocations: list[Allocation] = []
        #: Each allocation's base and end, index-aligned with
        #: ``allocations``.  The bump allocator hands out ascending,
        #: disjoint regions, so both lists stay sorted for a bisect.
        self._bases: list[int] = []
        self._ends: list[int] = []
        self.check_bounds = check_bounds

    # -- allocation ---------------------------------------------------------------

    def alloc(self, size_bytes: int, name: str = "region",
              align: int = 64) -> int:
        """Allocate ``size_bytes`` and return the base address."""
        base = (self._next + align - 1) // align * align
        self._next = base + size_bytes
        self.allocations.append(Allocation(name, base, size_bytes))
        self._bases.append(base)
        self._ends.append(self._next)
        return base

    def alloc_array(self, elem_size: int, count: int,
                    name: str = "array", init: Optional[Iterable] = None) -> int:
        base = self.alloc(elem_size * count, name)
        if init is not None:
            for i, value in enumerate(init):
                if i >= count:
                    break
                self._cells[base + i * elem_size] = value
        return base

    def region_of(self, address: int) -> Optional[Allocation]:
        """The allocation holding ``address``, else ``None``.

        The last allocation based at or below ``address`` is the only
        one that can hold it, since regions are ascending and disjoint.
        """
        index = bisect_right(self._bases, address) - 1
        if index >= 0 and address < self._ends[index]:
            return self.allocations[index]
        return None

    # -- access --------------------------------------------------------------------

    def load(self, address: int, ty: Type):
        if self.check_bounds and self.region_of(address) is None:
            raise MemoryError_("load from unallocated address 0x%x" % address)
        value = self._cells.get(address)
        if value is None:
            return 0.0 if ty.is_float() else 0
        if ty.is_float():
            return float(value)
        return int(value)

    def store(self, address: int, ty: Type, value) -> None:
        if self.check_bounds and self.region_of(address) is None:
            raise MemoryError_("store to unallocated address 0x%x" % address)
        self._cells[address] = float(value) if ty.is_float() else int(value)

    def read_array(self, base: int, elem_size: int, count: int, ty: Type):
        return [self.load(base + i * elem_size, ty) for i in range(count)]

    def __repr__(self) -> str:
        return "<SimMemory %d allocations, %d cells>" % (
            len(self.allocations), len(self._cells),
        )
