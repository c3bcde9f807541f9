"""The live-name count behind ``Function.unique_name``.

Each function counts the names of its blocks and of the named
instructions in them, and ``unique_name`` answers from that count.  It
must answer exactly as a scan of every block and instruction would, a
name freed by an erase included, and the verifier's recount must agree
after every pass that moves instructions or blocks.
"""

from __future__ import annotations

import copy

import pytest

import repro
from repro.analysis.cfg import remove_unreachable_blocks
from repro.frontend import compile_source
from repro.fuzz.generator import generate_program
from repro.ir import (
    I64,
    Call,
    Constant,
    Function,
    IRBuilder,
    VerificationError,
    verify_function,
)
from repro.transform import inline_call, simplify_cfg
from repro.transform.clone import clone_function
from repro.workloads import workload_by_name


def _scanned_unique_name(func: Function, base: str, counter) -> str:
    """``unique_name`` as a scan of the whole function answers it."""
    existing = {b.name for b in func.blocks}
    existing.update(i.name for b in func.blocks for i in b.instructions
                    if i.name)
    if base and base not in existing:
        return base
    while True:
        candidate = "%s.%d" % (base, next(counter))
        if candidate not in existing:
            return candidate


def _straight_function():
    func = Function("f", [I64], ["n"], I64)
    b = IRBuilder(func.add_block("entry"))
    x = b.add(func.args[0], Constant(I64, 1), name="x")
    y = b.add(x, Constant(I64, 2), name="y")
    b.ret(y)
    return func, x, y


class TestUniqueName:
    def test_live_name_is_suffixed(self):
        func, _, _ = _straight_function()
        assert func.unique_name("x") == "x.0"
        assert func.unique_name("entry") == "entry.1"

    def test_erased_name_is_free_again(self):
        func, x, y = _straight_function()
        y.replace_operand(x, func.args[0])
        x.erase_from_parent()
        assert func.unique_name("x") == "x"
        verify_function(func)

    def test_removed_block_frees_its_names(self):
        func, _, _ = _straight_function()
        spare = func.add_block("spare")
        IRBuilder(spare).add(func.args[0], Constant(I64, 3), name="z")
        IRBuilder(spare).ret(func.args[0])
        assert func.unique_name("z") == "z.0"
        func.remove_block(spare)
        assert func.unique_name("z") == "z"
        assert func.unique_name("spare") == "spare"
        verify_function(func)

    @pytest.mark.parametrize("app", ["cg", "libq", "fft"])
    def test_answers_as_a_full_scan(self, app, monkeypatch):
        real = Function.unique_name
        asked = []

        def checked(func, base):
            want = _scanned_unique_name(func, base,
                                        copy.copy(func._name_counter))
            got = real(func, base)
            assert got == want, (func.name, base)
            asked.append(base)
            return got

        monkeypatch.setattr(Function, "unique_name", checked)
        module = compile_source(workload_by_name(app).source(), name=app)
        repro.optimize_module(module)
        repro.generate_module_access_phases(module)
        assert len(asked) > 100


class TestRecountAgrees:
    CALLS = (
        "func sq(x: i64) -> i64 { var r: i64 = x * x; return r; }"
        "task t(A: i64*, n: i64) {"
        "  var i: i64;"
        "  for (i = 0; i < n; i = i + 1) { A[i] = sq(A[i]) + sq(i); }"
        "}"
    )

    def test_after_inline_call(self):
        module = compile_source(self.CALLS)
        repro.optimize_module(module)
        func = module.function("t")
        call = next(i for i in func.instructions() if isinstance(i, Call))
        inline_call(call)
        verify_function(func)

    def test_after_clone_function(self):
        module = compile_source(self.CALLS)
        clone = clone_function(module.function("t"), "t_copy", module)
        verify_function(clone)
        assert clone._names == module.function("t")._names

    def test_after_straightline_merge(self):
        func = Function("m", [I64], ["n"], I64)
        entry = func.add_block("entry")
        middle = func.add_block("middle")
        IRBuilder(entry).jump(middle)
        b = IRBuilder(middle)
        b.ret(b.add(func.args[0], Constant(I64, 1), name="sum"))
        assert simplify_cfg(func) > 0
        assert [block.name for block in func.blocks] == ["entry"]
        verify_function(func)
        assert func.unique_name("middle") == "middle"
        assert func.unique_name("sum") == "sum.0"

    def test_after_remove_unreachable_blocks(self):
        func, _, _ = _straight_function()
        orphan = func.add_block("orphan")
        b = IRBuilder(orphan)
        b.ret(b.add(func.args[0], Constant(I64, 5), name="dead"))
        assert remove_unreachable_blocks(func) == 1
        verify_function(func)
        assert func.unique_name("dead") == "dead"

    def test_after_every_pass_on_generated_programs(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PASSES", "1")
        for seed in range(20):
            module = compile_source(generate_program(seed).source)
            repro.optimize_module(module)
            repro.generate_module_access_phases(module)
            repro.ir.verify_module(module)


class TestCorruptCountFails:
    def test_extra_count(self):
        func, _, _ = _straight_function()
        func._names["x"] += 1
        with pytest.raises(VerificationError, match="name 'x' counted 2"):
            verify_function(func)

    def test_missing_name(self):
        func, _, _ = _straight_function()
        del func._names["y"]
        with pytest.raises(VerificationError, match="name 'y' counted 0"):
            verify_function(func)

    def test_hand_inserted_instruction(self):
        func, x, _ = _straight_function()
        twin = x.clone()
        twin.parent = func.entry
        func.entry.instructions.insert(0, twin)
        with pytest.raises(VerificationError,
                           match="name 'x' counted 1 times but borne 2"):
            verify_function(func)
