"""Tests for IRBuilder, Function/Module structure and the verifier."""

import pytest

from repro.ir import (
    F64,
    I64,
    VOID,
    Constant,
    Function,
    GlobalVariable,
    IRBuilder,
    Jump,
    Module,
    VerificationError,
    format_function,
    format_module,
    pointer_to,
    predecessors_map,
    verify_function,
    verify_module,
)


def simple_function():
    func = Function("loop", [I64], ["n"], VOID)
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    exit_block = func.add_block("exit")

    b = IRBuilder(entry)
    b.jump(header)

    b.set_block(header)
    phi = b.phi(I64, name="i")
    cond = b.cmp("slt", phi, func.arg_named("n"))
    b.condbr(cond, body, exit_block)

    b.set_block(body)
    nxt = b.add(phi, Constant(I64, 1))
    b.jump(header)

    phi.add_incoming(Constant(I64, 0), entry)
    phi.add_incoming(nxt, body)

    b.set_block(exit_block)
    b.ret()
    return func


class TestBuilder:
    def test_builds_verifiable_loop(self):
        func = simple_function()
        verify_function(func)

    def test_names_are_unique(self):
        func = Function("f", [I64, I64], ["a", "b"], I64)
        b = IRBuilder(func.add_block("entry"))
        x = b.add(func.args[0], func.args[1], name="x")
        y = b.add(x, func.args[1], name="x")
        assert x.name != y.name
        b.ret(y)
        verify_function(func)

    def test_alloca_lands_in_entry_block(self):
        func = Function("f", [], [], VOID)
        entry = func.add_block("entry")
        other = func.add_block("other")
        b = IRBuilder(other)
        slot = b.alloca(F64, name="tmp")
        assert slot.parent is entry

    def test_builder_without_block_raises(self):
        b = IRBuilder()
        with pytest.raises(ValueError):
            b.add(Constant(I64, 1), Constant(I64, 2))


class TestFunctionStructure:
    def test_entry_is_first_block(self):
        func = simple_function()
        assert func.entry.name == "entry"

    def test_block_named_lookup(self):
        func = simple_function()
        assert func.block_named("header") is func.blocks[1]
        with pytest.raises(KeyError):
            func.block_named("nope")

    def test_predecessors_and_successors(self):
        func = simple_function()
        header = func.block_named("header")
        preds = [b.name for b in predecessors_map(func)[header]]
        assert preds == ["entry", "body"]
        succs = {b.name for b in header.successors()}
        assert succs == {"body", "exit"}

    def test_arg_named(self):
        func = simple_function()
        assert func.arg_named("n").index == 0
        with pytest.raises(KeyError):
            func.arg_named("missing")

    def test_instructions_iterates_all_blocks(self):
        func = simple_function()
        opcodes = [i.opcode for i in func.instructions()]
        assert "phi" in opcodes and "ret" in opcodes


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function(Function("f", [], [], VOID))
        with pytest.raises(ValueError):
            module.add_function(Function("f", [], [], VOID))

    def test_tasks_filtered(self):
        module = Module("m")
        module.add_function(Function("helper", [], [], VOID))
        task = Function("work", [], [], VOID, is_task=True)
        module.add_function(task)
        assert module.tasks() == [task]

    def test_globals(self):
        module = Module("m")
        gv = GlobalVariable(F64, "table", size_elems=16)
        module.add_global(gv)
        assert gv.type == pointer_to(F64)
        with pytest.raises(ValueError):
            module.add_global(GlobalVariable(F64, "table"))


class TestVerifier:
    def test_detects_missing_terminator(self):
        func = Function("f", [], [], VOID)
        block = func.add_block("entry")
        b = IRBuilder(block)
        b.add(Constant(I64, 1), Constant(I64, 2))
        with pytest.raises(VerificationError):
            verify_function(func)

    def test_detects_foreign_block_target(self):
        func = simple_function()
        stranger = Function("g", [], [], VOID)
        foreign = stranger.add_block("foreign")
        func.block_named("exit").instructions[-1].erase_from_parent()
        exit_block = func.block_named("exit")
        jump = Jump(foreign)
        jump.parent = exit_block
        exit_block.instructions.append(jump)
        with pytest.raises(VerificationError):
            verify_function(func)

    def test_detects_phi_pred_mismatch(self):
        func = simple_function()
        header = func.block_named("header")
        phi = header.phis()[0]
        phi.remove_incoming_block(func.block_named("body"))
        with pytest.raises(VerificationError):
            verify_function(func)

    def test_verify_module_aggregates(self):
        module = Module("m")
        func = Function("broken", [], [], VOID)
        func.add_block("entry")
        module.add_function(func)
        with pytest.raises(VerificationError):
            verify_module(module)


class TestPrinter:
    def test_format_function_mentions_blocks_and_args(self):
        text = format_function(simple_function())
        assert "@loop" in text
        assert "entry:" in text
        assert "phi" in text

    def test_format_module_includes_globals(self):
        module = Module("m")
        module.add_global(GlobalVariable(F64, "w", size_elems=4))
        module.add_function(simple_function())
        text = format_module(module)
        assert "global @w" in text
        assert "@loop" in text
