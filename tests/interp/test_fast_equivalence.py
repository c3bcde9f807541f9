"""Differential suite: the fast interpreter is bit-identical to the
reference.

The reference :class:`~repro.interp.interpreter.Interpreter` is the
executable specification; :class:`~repro.interp.fast.FastInterpreter`
re-implements it over pre-decoded records for speed.  These tests pin
the equivalence the fast core's docstring promises: identical dynamic
instruction counts, identical memory-event streams (kind, address,
size, *order*), identical end-of-run memory, and byte-identical
:class:`~repro.sim.timing.PhaseProfile` serializations on every bundled
workload under every scheme — plus the awkward corners (undef
propagation, IEEE division, phi parallel moves, step limits, calls)
exercised head-to-head.
"""

import math

import pytest

from repro.engine.products import ALL_SCHEMES, phase_to_dict, profile_workload
from repro.frontend import compile_source
from repro.interp import (
    INTERP_CHOICES,
    FastInterpreter,
    InterpError,
    Interpreter,
    MemoryError_,
    SimMemory,
    decode_function,
    decode_stats,
    invalidate_decode,
    resolve_interp,
)
from repro.ir import (
    BOOL,
    F64,
    I64,
    VOID,
    Constant,
    Function,
    IRBuilder,
    Undef,
    pointer_to,
)
from repro.sim.config import MachineConfig
from repro.workloads import ALL_WORKLOADS, workload_by_name

#: Workloads cheap enough to re-run per-task for full event-stream and
#: memory-image comparison (the larger ones are covered by the profile
#: matrix below).
SMALL_WORKLOADS = ("cg", "cigar", "lbm", "libq")


def _trace_key(trace):
    return {
        "instructions": trace.instructions,
        "by_opcode": dict(trace.by_opcode),
        "mem_events": trace.mem_events,
        "dropped_prefetches": trace.dropped_prefetches,
        "return_value": trace.return_value,
    }


def _run_both(func, args, *, memories=None):
    """Run ``func`` under both interpreters on twin memories; return
    ``(ref_trace, fast_trace, ref_events, fast_events, ref_mem,
    fast_mem)`` with the traces already asserted equal."""
    ref_mem, fast_mem = memories if memories else (SimMemory(), SimMemory())
    ref_events, fast_events = [], []
    ref_trace = Interpreter(
        ref_mem,
        observer=lambda e: ref_events.append((e.kind, e.address, e.size)),
    ).run(func, list(args))
    fast_trace = FastInterpreter(
        fast_mem,
        sink=lambda kind, address, size: fast_events.append(
            (kind, address, size)
        ),
    ).run(func, list(args))
    assert _trace_key(ref_trace) == _trace_key(fast_trace)
    assert ref_events == fast_events
    assert ref_mem._cells == fast_mem._cells
    return ref_trace, fast_trace, ref_events, fast_events, ref_mem, fast_mem


# -- the tentpole guarantee: whole-workload profile identity -------------------


@pytest.mark.parametrize(
    "workload_cls", ALL_WORKLOADS, ids=lambda cls: cls().name,
)
def test_profiles_byte_identical(workload_cls):
    """Every bundled workload, every scheme: the engine's serialized
    profiles (the exact dict the cache stores and every figure reads)
    are equal between the two interpreters.  The fast side profiles one
    scheme per call: a single-scheme matrix records and replays
    nothing, so the fast core interprets every phase."""
    config = MachineConfig()
    ref = profile_workload(workload_cls(), 1, config, interp="reference")
    assert set(ref.profiles) == {s.value for s in ALL_SCHEMES}
    for scheme, ref_stream in ref.profiles.items():
        fast_stream = profile_workload(
            workload_cls(), 1, config, schemes=(scheme,),
        ).profiles[scheme]
        assert len(ref_stream.tasks) == len(fast_stream.tasks)
        for ref_task, fast_task in zip(ref_stream.tasks, fast_stream.tasks):
            assert ref_task.instance.name == fast_task.instance.name
            assert phase_to_dict(ref_task.execute) == phase_to_dict(
                fast_task.execute
            ), (scheme, ref_task.instance.name)
            if ref_task.access is None:
                assert fast_task.access is None
            else:
                assert phase_to_dict(ref_task.access) == phase_to_dict(
                    fast_task.access
                ), (scheme, ref_task.instance.name)


@pytest.mark.parametrize("name", SMALL_WORKLOADS)
def test_event_streams_and_memory_identical(name):
    """Task by task, the full (kind, address, size) event stream and the
    end-of-run memory image match on the smaller workloads."""
    streams = {}
    cells = {}
    for kind in ("reference", "fast"):
        workload = workload_by_name(name)
        compiled = workload.compile(None)
        memory, tasks, _ = workload.instantiate(scale=1, compiled=compiled)
        events = []
        if kind == "fast":
            interp = FastInterpreter(
                memory,
                sink=lambda k, a, s: events.append((k, a, s)),
            )
        else:
            interp = Interpreter(
                memory,
                observer=lambda e: events.append((e.kind, e.address, e.size)),
            )
        for task in tasks:
            access = task.kind.access
            if access is not None:
                interp.run(access, list(task.args))
            interp.run(task.kind.execute, list(task.args))
        streams[kind] = events
        cells[kind] = dict(memory._cells)
    assert streams["reference"] == streams["fast"]
    assert cells["reference"] == cells["fast"]


# -- corner-for-corner semantics ----------------------------------------------


class TestUndefCorners:
    def test_prefetch_of_undef_dropped_in_both(self):
        func = Function("p", [], [], VOID)
        b = IRBuilder(func.add_block("entry"))
        b.prefetch(Undef(pointer_to(F64)))
        b.ret()
        ref, fast, ref_events, *_ = _run_both(func, [])
        assert ref.dropped_prefetches == fast.dropped_prefetches == 1
        assert ref_events == []

    def test_store_to_undef_address_fully_skipped(self):
        func = Function("s", [], [], VOID)
        b = IRBuilder(func.add_block("entry"))
        b.store(Constant(F64, 1.5), Undef(pointer_to(F64)))
        b.ret()
        ref, fast, ref_events, *_ = _run_both(func, [])
        assert ref.mem_events == fast.mem_events == 0
        assert ref_events == []

    def test_store_of_undef_value_emits_event_but_no_write(self):
        func = Function("s", [pointer_to(F64)], ["p"], VOID)
        b = IRBuilder(func.add_block("entry"))
        b.store(Undef(F64), func.args[0])
        b.ret()
        ref_mem, fast_mem = SimMemory(), SimMemory()
        args = [ref_mem.alloc_array(8, 1, "A")]
        assert args[0] == fast_mem.alloc_array(8, 1, "A")
        ref, fast, ref_events, *_ = _run_both(
            func, args, memories=(ref_mem, fast_mem),
        )
        assert ref.mem_events == fast.mem_events == 1
        assert ref_events == [("store", args[0], 8)]
        assert ref_mem._cells == {}

    def test_branch_on_undef_same_error(self):
        func = Function("f", [], [], VOID)
        entry = func.add_block("entry")
        t, e = func.add_block("t"), func.add_block("e")
        b = IRBuilder(entry)
        b.condbr(Undef(BOOL), t, e)
        for block in (t, e):
            b.set_block(block)
            b.ret()
        messages = []
        for interp in (Interpreter(SimMemory()),
                       FastInterpreter(SimMemory())):
            with pytest.raises(InterpError) as excinfo:
                interp.run(func, [])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] == "branch on undef in f"

    def test_undef_propagates_through_arithmetic(self):
        # Direct IR — the frontend would spill the argument through an
        # alloca, and a load of a skipped undef store reads back 0.0.
        func = Function("f", [F64], ["x"], F64)
        b = IRBuilder(func.add_block("entry"))
        doubled = b.binop("fmul", func.args[0], Constant(F64, 2.0), "d")
        b.ret(b.binop("fadd", doubled, Constant(F64, 1.0), "r"))
        from repro.interp import UNDEF
        ref = Interpreter(SimMemory()).run(func, [UNDEF])
        fast = FastInterpreter(SimMemory()).run(func, [UNDEF])
        assert ref.return_value is UNDEF
        assert fast.return_value is UNDEF


class TestArithmeticCorners:
    @pytest.mark.parametrize("numerator,expected", [
        (1.0, math.inf), (-1.0, -math.inf),
    ])
    def test_fdiv_by_zero_signed_infinity(self, numerator, expected):
        func = compile_source(
            "func f(a: f64, b: f64) -> f64 { return a / b; }"
        ).function("f")
        ref = Interpreter(SimMemory()).run(func, [numerator, 0.0])
        fast = FastInterpreter(SimMemory()).run(func, [numerator, 0.0])
        assert ref.return_value == fast.return_value == expected

    def test_fdiv_zero_by_zero_is_nan_in_both(self):
        func = compile_source(
            "func f(a: f64, b: f64) -> f64 { return a / b; }"
        ).function("f")
        ref = Interpreter(SimMemory()).run(func, [0.0, 0.0])
        fast = FastInterpreter(SimMemory()).run(func, [0.0, 0.0])
        assert math.isnan(ref.return_value)
        assert math.isnan(fast.return_value)

    @pytest.mark.parametrize("op,message", [
        ("/", "integer division by zero"),
        ("%", "integer remainder by zero"),
    ])
    def test_integer_division_by_zero_same_message(self, op, message):
        func = compile_source(
            "func f(a: i64) -> i64 { return 7 %s a; }" % op
        ).function("f")
        for make in (Interpreter, FastInterpreter):
            with pytest.raises(InterpError) as excinfo:
                make(SimMemory()).run(func, [0])
            assert str(excinfo.value) == message

    def test_truncating_signed_division(self):
        # Python's // floors; the IR sdiv truncates toward zero.  Every
        # sign combination must agree between the two interpreters.
        func = compile_source(
            "func f(a: i64, b: i64) -> i64 { return a / b; }"
        ).function("f")
        for a, b in [(7, 2), (-7, 2), (7, -2), (-7, -2)]:
            ref = Interpreter(SimMemory()).run(func, [a, b])
            fast = FastInterpreter(SimMemory()).run(func, [a, b])
            assert ref.return_value == fast.return_value


class TestControlFlowCorners:
    def test_phi_parallel_swap(self):
        """Two phis feeding each other must read old values (a parallel
        move); sequential assignment would collapse them."""
        func = Function("swap", [I64], ["n"], I64)
        entry = func.add_block("entry")
        loop = func.add_block("loop")
        done = func.add_block("done")
        b = IRBuilder(entry)
        b.jump(loop)
        b.set_block(loop)
        first = b.phi(I64, "a")
        second = b.phi(I64, "b")
        counter = b.phi(I64, "i")
        nxt = b.add(counter, Constant(I64, 1), "i.next")
        cond = b.cmp("slt", nxt, func.args[0], "more")
        b.condbr(cond, loop, done)
        first.add_incoming(Constant(I64, 1), entry)
        first.add_incoming(second, loop)
        second.add_incoming(Constant(I64, 2), entry)
        second.add_incoming(first, loop)
        counter.add_incoming(Constant(I64, 0), entry)
        counter.add_incoming(nxt, loop)
        b.set_block(done)
        packed = b.add(
            b.mul(first, Constant(I64, 10), "hi"), second, "packed",
        )
        b.ret(packed)
        for n in (1, 2, 5, 6):
            ref, fast, *_ = _run_both(func, [n])
            # Odd iteration counts leave (1, 2); even leave (2, 1).
            assert ref.return_value == (12 if n % 2 else 21)

    def test_step_limit_same_error(self):
        func = compile_source(
            "task t(n: i64) { while (n > 0) { n = n + 1; } }"
        ).function("t")
        for make in (Interpreter, FastInterpreter):
            with pytest.raises(InterpError) as excinfo:
                make(SimMemory(), max_steps=1000).run(func, [1])
            assert str(excinfo.value) == "interpreter step limit exceeded"

    def test_arg_count_same_error(self):
        func = compile_source("task t(n: i64) { }").function("t")
        for make in (Interpreter, FastInterpreter):
            with pytest.raises(InterpError) as excinfo:
                make(SimMemory()).run(func, [])
            assert str(excinfo.value) == "t expects 1 args, got 0"

    def test_nonvoid_call_merges_counts(self):
        callee = Function("inc", [I64], ["x"], I64)
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(cb.add(callee.args[0], Constant(I64, 1), "x1"))
        caller = Function("main", [I64], ["x"], I64)
        mb = IRBuilder(caller.add_block("entry"))
        mb.ret(mb.call(callee, [caller.args[0]], "r"))
        ref, fast, *_ = _run_both(caller, [41])
        assert ref.return_value == 42
        assert ref.count("call") == fast.count("call") == 1
        assert ref.count("add") == fast.count("add") == 1

    def test_void_call(self):
        callee = Function("nop", [], [], VOID)
        IRBuilder(callee.add_block("entry")).ret()
        caller = Function("main", [], [], VOID)
        mb = IRBuilder(caller.add_block("entry"))
        mb.call(callee, [])
        mb.ret()
        ref, fast, *_ = _run_both(caller, [])
        assert ref.return_value is None and fast.return_value is None

    def test_bounds_violation_same_error(self):
        func = compile_source(
            "task t(A: f64*) { A[0] = 1.0; }"
        ).function("t")
        for make in (Interpreter, FastInterpreter):
            with pytest.raises(MemoryError_):
                make(SimMemory()).run(func, [0x10])


# -- the decode cache ----------------------------------------------------------


class TestDecodeCache:
    def test_second_run_hits_cache(self):
        func = compile_source(
            "func f(x: i64) -> i64 { return x + 1; }"
        ).function("f")
        invalidate_decode(func)
        before = decode_stats()
        interp = FastInterpreter(SimMemory())
        interp.run(func, [1])
        interp.run(func, [2])
        after = decode_stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] >= 1

    def test_invalidate_forces_redecode(self):
        func = compile_source(
            "func f(x: i64) -> i64 { return x + 1; }"
        ).function("f")
        first = decode_function(func)
        assert decode_function(func) is first
        invalidate_decode(func)
        assert decode_function(func) is not first

    def test_resolve_interp(self, monkeypatch):
        # The process environment has no say in the choice.
        monkeypatch.setenv("REPRO_INTERP", "reference")
        assert INTERP_CHOICES == ("replay", "reference")
        assert resolve_interp(None) == "replay"
        assert resolve_interp("replay") == "replay"
        assert resolve_interp("reference") == "reference"
        for bad in ("fast", "turbo"):
            with pytest.raises(ValueError,
                               match="'replay', 'reference'"):
                resolve_interp(bad)
