"""mem2reg, DCE, CFG simplification, cloning."""

from repro.frontend import compile_source
from repro.interp import Interpreter, SimMemory
from repro.ir import (
    Alloca,
    CondBr,
    Constant,
    I64,
    Phi,
    Store,
    verify_function,
)
from repro.transform import (
    dead_code_elimination,
    mem2reg,
    optimize_function,
    promotable_allocas,
    simplify_cfg,
)
from repro.transform.clone import clone_function


def compiled(source, name):
    return compile_source(source).function(name)


class TestMem2Reg:
    def test_promotes_all_scalar_allocas(self):
        func = compiled(
            "func f(n: i64) -> i64 { var a: i64 = 1; var b: i64 = 2;"
            " return a + b + n; }", "f",
        )
        count = mem2reg(func)
        assert count >= 3  # a, b and the n.addr slot
        assert not any(isinstance(i, Alloca) for i in func.instructions())
        verify_function(func)

    def test_inserts_phi_at_merge(self):
        func = compiled(
            "func f(n: i64) -> i64 { var x: i64 = 0;"
            " if (n > 0) { x = 1; } else { x = 2; } return x; }", "f",
        )
        mem2reg(func)
        phis = [i for i in func.instructions() if isinstance(i, Phi)]
        assert len(phis) == 1
        assert len(phis[0].incoming()) == 2

    def test_loop_carried_variable_gets_header_phi(self):
        func = compiled(
            "func f(n: i64) -> i64 { var s: i64 = 0; var i: i64;"
            " for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }", "f",
        )
        mem2reg(func)
        header = func.block_named("for.cond")
        assert len(header.phis()) >= 2  # s and i

    def test_escaped_alloca_not_promoted(self):
        # Passing the address to a callee makes the slot non-promotable.
        module = compile_source(
            "func g(p: f64*) { p[0] = 1.0; }"
            "func f() { var x: f64 = 0.0; }"
        )
        func = module.function("f")
        allocas = [i for i in func.instructions() if isinstance(i, Alloca)]
        assert allocas
        assert promotable_allocas(func) == allocas  # no escape here

    def test_semantics_preserved(self):
        src = ("func f(n: i64) -> i64 { var acc: i64 = 1; var i: i64;"
               " for (i = 1; i <= n; i = i + 1) { acc = acc * i; }"
               " return acc; }")
        func = compiled(src, "f")
        before = Interpreter(SimMemory()).run(func, [6]).return_value
        mem2reg(func)
        verify_function(func)
        after = Interpreter(SimMemory()).run(func, [6]).return_value
        assert before == after == 720


class TestDCE:
    def test_removes_unused_arithmetic(self):
        func = compiled(
            "func f(n: i64) -> i64 { var waste: i64 = n * 17 + 4;"
            " return n; }", "f",
        )
        mem2reg(func)
        removed = dead_code_elimination(func)
        assert removed >= 2
        opcodes = [getattr(i, "op", i.opcode) for i in func.instructions()]
        assert "mul" not in opcodes

    def test_keeps_stores(self):
        func = compiled("task t(A: f64*) { A[3] = 1.0; }", "t")
        optimize_function(func)
        assert any(isinstance(i, Store) for i in func.instructions())

    def test_removes_dead_phi_cycles(self):
        func = compiled(
            "func f(n: i64) -> i64 { var a: i64 = 0; var i: i64;"
            " for (i = 0; i < n; i = i + 1) { a = a + 1; } return n; }", "f",
        )
        mem2reg(func)
        dead_code_elimination(func)
        # 'a' is never used; its phi chain must be gone.
        phi_names = [i.name for i in func.instructions()
                     if isinstance(i, Phi)]
        assert all("a" != name.split(".")[0] for name in phi_names)


class TestSimplifyCFG:
    def test_folds_constant_branch(self):
        func = compiled(
            "func f() -> i64 { if (1 == 1) { return 5; } return 6; }", "f",
        )
        mem2reg(func)
        simplify_cfg(func)
        assert not any(isinstance(i, CondBr) for i in func.instructions())
        assert Interpreter(SimMemory()).run(func, []).return_value == 5

    def test_merges_straightline_chains(self):
        func = compiled("func f(n: i64) -> i64 { return n + 1; }", "f")
        mem2reg(func)
        simplify_cfg(func)
        assert len(func.blocks) == 1

    def test_unreachable_blocks_removed(self):
        func = compiled(
            "func f() -> i64 { return 1; }", "f",
        )
        dead = func.add_block("dead")
        from repro.ir import IRBuilder
        IRBuilder(dead).ret(Constant(I64, 9))
        simplify_cfg(func)
        assert dead not in func.blocks

    def test_semantics_stable_under_full_pipeline(self):
        src = ("func f(n: i64) -> i64 { var r: i64 = 0;"
               " if (n % 3 == 0) { r = 1; } else if (n % 3 == 1) { r = 2; }"
               " else { r = 3; } return r; }")
        for value, expect in ((9, 1), (10, 2), (11, 3)):
            func = compiled(src, "f")
            optimize_function(func)
            got = Interpreter(SimMemory()).run(func, [value]).return_value
            assert got == expect


class TestClone:
    def test_clone_is_independent(self):
        func = compiled(
            "func f(n: i64) -> i64 { var s: i64 = 0; var i: i64;"
            " for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }", "f",
        )
        optimize_function(func)
        clone = clone_function(func, "f_copy")
        verify_function(clone)
        assert clone.name == "f_copy"
        assert Interpreter(SimMemory()).run(clone, [5]).return_value == 10
        # Mutating the clone leaves the original intact.
        for inst in list(clone.instructions()):
            pass
        clone.blocks[0].instructions[0]
        original = Interpreter(SimMemory()).run(func, [5]).return_value
        assert original == 10

    def test_clone_remaps_phis_and_branches(self):
        func = compiled(
            "func f(n: i64) -> i64 { var x: i64 = 0;"
            " if (n > 0) { x = 1; } return x; }", "f",
        )
        optimize_function(func)
        clone = clone_function(func, "g")
        own_blocks = set(map(id, clone.blocks))
        for block in clone.blocks:
            for succ in block.successors():
                assert id(succ) in own_blocks
            for phi in block.phis():
                for pred in phi.incoming_blocks:
                    assert id(pred) in own_blocks
