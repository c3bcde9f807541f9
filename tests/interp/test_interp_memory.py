"""Interpreter and simulated memory tests."""

import pytest

from repro.frontend import compile_source
from repro.interp import (
    InterpError,
    Interpreter,
    MemoryError_,
    SimMemory,
)
from repro.ir import F64, I64


class TestSimMemory:
    def test_alloc_alignment(self):
        memory = SimMemory()
        base = memory.alloc(100, align=64)
        assert base % 64 == 0
        second = memory.alloc(8)
        assert second >= base + 100

    def test_array_init_and_read(self):
        memory = SimMemory()
        base = memory.alloc_array(8, 3, "x", init=[1.5, 2.5, 3.5])
        assert memory.read_array(base, 8, 3, F64) == [1.5, 2.5, 3.5]

    def test_uninitialized_reads_zero(self):
        memory = SimMemory()
        base = memory.alloc_array(8, 2, "x")
        assert memory.load(base, I64) == 0
        assert memory.load(base + 8, F64) == 0.0

    def test_bounds_checked(self):
        memory = SimMemory()
        memory.alloc_array(8, 2, "x")
        with pytest.raises(MemoryError_):
            memory.load(0x10, I64)
        with pytest.raises(MemoryError_):
            memory.store(0x10, I64, 1)

    def test_region_lookup(self):
        memory = SimMemory()
        base = memory.alloc_array(8, 4, "arr")
        region = memory.region_of(base + 16)
        assert region is not None and region.name == "arr"
        assert memory.region_of(base - 1) is None or True  # other region ok

    def test_copy_is_independent(self):
        """A store or an allocation on a copy leaves the original's
        cells, regions and bump pointer as they were, and the other
        way round."""
        memory = SimMemory()
        base = memory.alloc_array(8, 2, "A", init=[1.5, 2.5])
        copy = memory.copy()
        assert copy._cells == memory._cells
        assert copy.region_of(base).name == "A"
        copy.store(base, F64, 9.0)
        extra = copy.alloc_array(8, 4, "B")
        assert memory.load(base, F64) == 1.5
        assert memory.region_of(extra) is None
        assert [a.name for a in memory.allocations] == ["A"]
        assert memory.alloc(8) == extra    # the bump pointer did not move
        assert copy.load(base, F64) == 9.0
        assert copy.region_of(extra).name == "B"
        assert [a.name for a in copy.allocations] == ["A", "B"]
        memory.store(base + 8, F64, 7.0)
        assert copy.load(base + 8, F64) == 2.5


class TestTraceCollection:
    def test_instruction_and_opcode_counts(self):
        src = ("func f(n: i64) -> i64 { var s: i64 = 0; var i: i64;"
               " for (i = 0; i < n; i = i + 1) { s = s + i * 2; }"
               " return s; }")
        func = compile_source(src).function("f")
        trace = Interpreter(SimMemory()).run(func, [5])
        assert trace.return_value == 20
        assert trace.count("mul") == 5
        assert trace.instructions > 30

    def test_memory_events_streamed_in_order(self):
        from repro.transform import optimize_function

        src = ("task t(A: f64*) { A[0] = 1.0; A[1] = A[0]; }")
        func = compile_source(src).function("t")
        optimize_function(func)  # drop alloca spill traffic
        memory = SimMemory()
        base = memory.alloc_array(8, 2, "A")
        events = []
        Interpreter(memory, observer=lambda e: events.append(
            (e.kind, e.address))).run(func, [base])
        assert events == [
            ("store", base), ("load", base), ("store", base + 8),
        ]

    def test_flops_counted(self):
        src = "func f(x: f64) -> f64 { return x * x + x / 2.0; }"
        func = compile_source(src).function("f")
        trace = Interpreter(SimMemory()).run(func, [3.0])
        assert trace.flops == 3


class TestErrors:
    def test_step_limit_enforced(self):
        src = "task t(n: i64) { while (n > 0) { n = n + 1; } }"
        func = compile_source(src).function("t")
        interp = Interpreter(SimMemory(), max_steps=1000)
        with pytest.raises(InterpError):
            interp.run(func, [1])

    def test_arg_count_checked(self):
        func = compile_source("task t(n: i64) { }").function("t")
        with pytest.raises(InterpError):
            Interpreter(SimMemory()).run(func, [])

    def test_division_by_zero_raises(self):
        func = compile_source(
            "func f(a: i64) -> i64 { return 1 / a; }"
        ).function("f")
        with pytest.raises(InterpError):
            Interpreter(SimMemory()).run(func, [0])


class TestUndefHandling:
    def test_prefetch_of_undef_dropped(self):
        from repro.ir import (
            VOID, Function, IRBuilder, Prefetch, Undef, pointer_to,
        )
        func = Function("p", [], [], VOID)
        block = func.add_block("entry")
        b = IRBuilder(block)
        undef_ptr = Undef(pointer_to(F64))
        block.append(Prefetch(undef_ptr))
        b.ret()
        trace = Interpreter(SimMemory()).run(func, [])
        assert trace.dropped_prefetches == 1
