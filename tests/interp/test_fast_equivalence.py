"""Differential suite: the fast interpreter is bit-identical to the
reference.

The reference :class:`~repro.interp.interpreter.Interpreter` is the
executable specification; :class:`~repro.interp.fast.FastInterpreter`
re-implements it over pre-decoded records for speed.  These tests pin
the equivalence the fast core's docstring promises: identical dynamic
instruction counts, identical memory-event streams (kind, address,
*order*: every field a recording holds), identical end-of-run memory, and byte-identical
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
    KIND_NAMES,
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
    BINARY_OPS,
    BOOL,
    CMP_PREDICATES,
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


def _named_events(flat):
    """The fast core's flat ``[code, address, ...]`` event list as
    ``(kind, address)`` tuples."""
    return [(KIND_NAMES[flat[i]], flat[i + 1])
            for i in range(0, len(flat), 2)]


def _run_both(func, args, *, memories=None):
    """Run ``func`` under both interpreters on twin memories; return
    ``(ref_trace, fast_trace, ref_events, fast_events, ref_mem,
    fast_mem)`` with the traces already asserted equal."""
    ref_mem, fast_mem = memories if memories else (SimMemory(), SimMemory())
    ref_events, flat = [], []
    ref_trace = Interpreter(
        ref_mem,
        observer=lambda e: ref_events.append((e.kind, e.address)),
    ).run(func, list(args))
    fast_trace = FastInterpreter(fast_mem, events=flat).run(func, list(args))
    fast_events = _named_events(flat)
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
    """Task by task, the full (kind, address) event stream and the
    end-of-run memory image match on the smaller workloads."""
    streams = {}
    cells = {}
    for kind in ("reference", "fast"):
        workload = workload_by_name(name)
        compiled = workload.compile(None)
        memory, tasks, _ = workload.instantiate(scale=1, compiled=compiled)
        events = []
        if kind == "fast":
            flat = []
            interp = FastInterpreter(memory, events=flat)
        else:
            interp = Interpreter(
                memory,
                observer=lambda e: events.append((e.kind, e.address)),
            )
        for task in tasks:
            access = task.kind.access
            if access is not None:
                interp.run(access, list(task.args))
            interp.run(task.kind.execute, list(task.args))
        streams[kind] = _named_events(flat) if kind == "fast" else events
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
        assert ref_events == [("store", args[0])]
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

    def test_every_binop_and_predicate_matches_reference(self):
        """Each binop name and compare predicate, as direct IR over
        mixed-sign and zero operands: same result and result type, or
        the same error."""
        float_ops = {"fadd", "fsub", "fmul", "fdiv"}
        cases = [(op, F64 if op in float_ops else I64, None)
                 for op in sorted(BINARY_OPS)]
        cases += [("cmp", ty, pred) for pred in sorted(CMP_PREDICATES)
                  for ty in (I64, F64)]
        for op, ty, pred in cases:
            result_type = BOOL if pred else ty
            func = Function("f", [ty, ty], ["a", "b"], result_type)
            b = IRBuilder(func.add_block("entry"))
            a, c = func.args
            b.ret(b.cmp(pred, a, c, "r") if pred else b.binop(op, a, c, "r"))
            operands = [(7, 3), (-7, 3), (7, -3), (3, 7), (5, 5), (0, 2),
                        (6, 0)]
            if ty is F64:
                operands = [(float(x), float(y)) for x, y in operands]
            for args in operands:
                outcomes = []
                for make in (Interpreter, FastInterpreter):
                    try:
                        value = make(SimMemory()).run(func, list(args))
                        outcomes.append((type(value.return_value),
                                         value.return_value))
                    except (InterpError, ValueError) as exc:
                        # A negative shift count raises ValueError.
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1], (op, pred, ty, args)

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


# -- the generated core's own corners ----------------------------------------


def _nested_loops():
    """Sum ``i * j`` over two nested loops (the inner one tested at
    the bottom) in direct IR: the inner loop is a ``while`` segment of
    its own head, and the exit block (inlined under the outer head)
    returns."""
    func = Function("nest", [I64], ["n"], I64)
    entry, outer, inner = (func.add_block(name)
                           for name in ("entry", "outer", "inner"))
    latch, done = func.add_block("latch"), func.add_block("done")
    zero, one = Constant(I64, 0), Constant(I64, 1)
    b = IRBuilder(entry)
    b.jump(outer)
    b.set_block(outer)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    b.condbr(b.cmp("slt", i, func.args[0], "more.i"), inner, done)
    b.set_block(inner)
    j = b.phi(I64, "j")
    t = b.phi(I64, "t")
    t_next = b.add(t, b.mul(i, j, "ij"), "t.next")
    j_next = b.add(j, one, "j.next")
    b.condbr(b.cmp("slt", j_next, func.args[0], "more.j"), inner, latch)
    b.set_block(latch)
    i_next = b.add(i, one, "i.next")
    b.jump(outer)
    b.set_block(done)
    b.ret(s)
    i.add_incoming(zero, entry)
    i.add_incoming(i_next, latch)
    s.add_incoming(zero, entry)
    s.add_incoming(t_next, latch)
    j.add_incoming(zero, outer)
    j.add_incoming(j_next, inner)
    t.add_incoming(s, outer)
    t.add_incoming(t_next, inner)
    return func


def _outcome(make, func, args, max_steps):
    """``("ok", trace key)`` or ``("raise", message)`` for one run."""
    try:
        trace = make(SimMemory(), max_steps=max_steps).run(func, list(args))
    except InterpError as exc:
        return ("raise", str(exc))
    return ("ok", _trace_key(trace))


class TestGeneratedCore:
    @pytest.mark.parametrize("ty,value", [
        (F64, "undef"), (I64, True), (F64, 3),
    ], ids=["undef-arg", "bool-for-i64", "int-for-f64"])
    def test_guard_failure_runs_general_variant(self, ty, value):
        from repro.interp import UNDEF
        value = UNDEF if value == "undef" else value
        func = Function("g", [ty, pointer_to(ty)], ["x", "p"], ty)
        b = IRBuilder(func.add_block("entry"))
        op = "fadd" if ty is F64 else "add"
        total = b.binop(op, func.args[0], b.load(func.args[1], "y"), "s")
        b.store(total, func.args[1])
        b.ret(b.binop(op, total, func.args[0], "r"))

        def run(x):
            memories = (SimMemory(), SimMemory())
            pointers = [m.alloc_array(8, 1, "P", init=[2]) for m in memories]
            assert pointers[0] == pointers[1]
            return _run_both(func, [x, pointers[0]], memories=memories)

        invalidate_decode(func)
        ref, fast, *_ = run(value)
        decoded = decode_function(func)
        assert decoded.code is not None
        assert decoded.general_code is not None
        if value is UNDEF:
            assert fast.return_value is UNDEF
        # Well-typed arguments stay on the typed variant.
        decoded.general_code = None
        run(1.5 if ty is F64 else 2)
        assert decoded.general_code is None

    def test_region_cache_switches_and_gap_raises(self):
        func = Function("hop", [pointer_to(F64)] * 3, ["a", "b", "gap"], F64)
        b = IRBuilder(func.add_block("entry"))
        a0 = b.load(func.args[0], "a0")
        b0 = b.load(func.args[1], "b0")
        a1 = b.load(b.gep(func.args[0], Constant(I64, 1), "a.1"), "a1")
        total = b.binop("fadd", b.binop("fadd", a0, b0, "s0"), a1, "s1")
        gap = b.load(func.args[2], "g")
        b.ret(b.binop("fadd", total, gap, "s2"))
        for checked in (True, False):
            memories = (SimMemory(check_bounds=checked),
                        SimMemory(check_bounds=checked))
            args = []
            for memory in memories:
                a = memory.alloc_array(8, 2, "A", init=[1.0, 2.0])
                bb = memory.alloc_array(8, 1, "B", init=[4.0])
                # 64-byte alignment leaves a gap between A and B.
                args.append([a, bb, a + 32])
            assert args[0] == args[1] and args[0][2] < args[0][1]
            if not checked:
                ref, fast, ref_events, *_ = _run_both(
                    func, args[0], memories=memories,
                )
                assert ref.return_value == fast.return_value == 7.0
                assert [e[1] for e in ref_events] == [
                    args[0][0], args[0][1], args[0][0] + 8, args[0][2],
                ]
                continue
            messages, streams = [], []
            for make, memory in zip((Interpreter, FastInterpreter),
                                    memories):
                events = []
                if make is Interpreter:
                    interp = Interpreter(memory, observer=lambda e: events.
                                         append((e.kind, e.address)))
                else:
                    flat = []
                    interp = FastInterpreter(memory, events=flat)
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run(func, list(args[0]))
                messages.append(str(excinfo.value))
                streams.append(events if make is Interpreter
                               else _named_events(flat))
            assert messages[0] == messages[1] == (
                "load from unallocated address 0x%x" % args[0][2])
            assert streams[0] == streams[1] and len(streams[0]) == 4

    def test_step_limit_every_budget_agrees(self):
        """Every budget up to the full run: both cores raise or both
        finish, including budgets crossed in the inner ``while`` segment
        and in the inlined exit block."""
        func = _nested_loops()
        total = Interpreter(SimMemory()).run(func, [4]).instructions
        assert _outcome(FastInterpreter, func, [4], total)[0] == "ok"
        outcomes = {"ok": 0, "raise": 0}
        for budget in range(1, total + 2):
            ref = _outcome(Interpreter, func, [4], budget)
            fast = _outcome(FastInterpreter, func, [4], budget)
            assert ref == fast, budget
            outcomes[ref[0]] += 1
        assert outcomes == {"ok": 2, "raise": total - 1}

    def test_step_limit_inside_callee(self):
        callee = _nested_loops()
        caller = Function("outer", [I64], ["n"], I64)
        b = IRBuilder(caller.add_block("entry"))
        first = b.call(callee, [caller.args[0]], "r1")
        b.ret(b.add(first, b.call(callee, [caller.args[0]], "r2"), "r"))
        per_call = Interpreter(SimMemory()).run(callee, [4]).instructions
        _run_both(caller, [4])
        # Below ``per_call`` the limit fires inside the callee.  Above
        # it each invocation fits its own budget, but the caller's
        # total (both calls) passes the limit in the block holding the
        # calls and the return: the reference raises there, and so must
        # the generated code, which compares after each call.
        for budget in (per_call // 2, per_call - 1, per_call + 4):
            ref = _outcome(Interpreter, caller, [4], budget)
            fast = _outcome(FastInterpreter, caller, [4], budget)
            assert ref == fast == ("raise", "interpreter step limit exceeded")
        assert _outcome(FastInterpreter, caller, [4], 2 * per_call + 4)[0] \
            == _outcome(Interpreter, caller, [4], 2 * per_call + 4)[0] == "ok"

    def test_recursion_generated_mid_run_and_call_result_phi(self):
        fib = Function("fib", [I64], ["n"], I64)
        entry, rec, done = (fib.add_block(name)
                            for name in ("entry", "rec", "done"))
        b = IRBuilder(entry)
        b.condbr(b.cmp("slt", fib.args[0], Constant(I64, 2), "base"),
                 done, rec)
        b.set_block(rec)
        left = b.call(fib, [b.sub(fib.args[0], Constant(I64, 1), "n1")], "l")
        right = b.call(fib, [b.sub(fib.args[0], Constant(I64, 2), "n2")], "r")
        total = b.add(left, right, "sum")
        b.jump(done)
        b.set_block(done)
        result = b.phi(I64, "res")
        result.add_incoming(fib.args[0], entry)
        result.add_incoming(total, rec)
        b.ret(result)
        main = Function("main", [I64], ["n"], I64)
        b = IRBuilder(main.add_block("entry"))
        b.ret(b.call(fib, [main.args[0]], "f"))
        invalidate_decode(fib)
        invalidate_decode(main)
        ref, fast, *_ = _run_both(main, [10])
        assert fast.return_value == 55
        assert decode_function(fib).code is not None
        assert fast.count("call") == ref.count("call") == 177

    def test_non_finite_and_negative_zero_constants(self):
        func = Function("c", [F64], ["x"], I64)
        b = IRBuilder(func.add_block("entry"))
        x = func.args[0]
        big = b.binop("fadd", x, Constant(F64, math.inf), "big")
        bad = b.binop("fmul", x, Constant(F64, math.nan), "bad")
        same = b.cmp("eq", bad, bad, "same")
        neg = b.binop("fmul", x, Constant(F64, -0.0), "neg")
        inv = b.binop("fdiv", Constant(F64, 1.0), neg, "inv")
        low = b.binop("fsub", Constant(F64, -math.inf), x, "low")
        packed = b.add(
            b.add(b.cast("fptosi", big, I64, "bi"),
                  b.cast("sext", same, I64, "si"), "p0"),
            b.cast("fptosi", low, I64, "li"), "p1",
        )
        b.ret(b.add(packed, b.cast("fptosi", inv, I64, "ii"), "p2"))
        ref, fast, *_ = _run_both(func, [2.0])
        # fptosi(inf) + 0 + fptosi(-inf) + fptosi(1 / -0.0 -> inf).
        assert fast.return_value == -1 + (2 ** 63 - 1)

        sign = Function("z", [F64], ["x"], F64)
        b = IRBuilder(sign.add_block("entry"))
        b.ret(b.binop("fmul", Constant(F64, -0.0), sign.args[0], "z"))
        ref, fast, *_ = _run_both(sign, [3.0])
        assert math.copysign(1.0, fast.return_value) == -1.0

    def test_deep_branch_chain_is_dispatched(self):
        """A chain of 120 early exits nests each continuation one level
        deeper when inlined; past the inlining depth the generator
        dispatches blocks as heads instead of exceeding the parser's
        indentation limit."""
        func = Function("chain", [I64], ["x"], I64)
        b = IRBuilder(func.add_block("entry"))
        for step in range(120):
            exit_block = func.add_block("exit%d" % step)
            more = func.add_block("more%d" % step)
            b.condbr(b.cmp("eq", func.args[0], Constant(I64, step), "hit"),
                     exit_block, more)
            b.set_block(exit_block)
            b.ret(Constant(I64, step * 10))
            b.set_block(more)
        b.ret(Constant(I64, -1))
        for x in (0, 57, 119, 500):
            invalidate_decode(func)
            ref, fast, *_ = _run_both(func, [x])
            assert fast.return_value == (x * 10 if x < 120 else -1)

    def test_invalidate_after_ir_edit_runs_edited_code(self):
        func = Function("f", [I64], ["x"], I64)
        b = IRBuilder(func.add_block("entry"))
        add = b.add(func.args[0], Constant(I64, 1), "x1")
        b.ret(add)
        ref, fast, *_ = _run_both(func, [1])
        assert fast.return_value == 2
        add.replace_operand(add.rhs, Constant(I64, 5))
        invalidate_decode(func)
        ref, fast, *_ = _run_both(func, [1])
        assert ref.return_value == fast.return_value == 6


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
