"""Skeleton (non-affine) access generation: slicing, CFG simplification,
prefetch insertion, legality bail-outs, line dedupe."""

from repro.frontend import compile_source
from repro.interp import Interpreter, SimMemory
from repro.ir import Call, CondBr, Load, Prefetch, Store, verify_function
from repro.transform import optimize_module
from repro.transform.access_phase import (
    AccessPhaseOptions,
    SkeletonOptions,
    generate_access_phase,
)
from tests.conftest import POINTER_CHASE


def build(source, task_name, options=None):
    module = compile_source(source)
    optimize_module(module)
    task = module.function(task_name)
    result = generate_access_phase(task, module=module, options=options)
    if result.access is not None:
        verify_function(result.access)
    return result


class TestPointerChase:
    def test_method_is_skeleton(self):
        result = build(POINTER_CHASE, "chase")
        assert result.method == "skeleton"

    def test_chain_load_kept_conditional_dropped(self):
        result = build(POINTER_CHASE, "chase")
        loads = [i for i in result.access.instructions()
                 if isinstance(i, Load)]
        # head + next[p] loads survive (addresses); data loads do not.
        assert 1 <= len(loads) <= 2
        conds = [i for i in result.access.instructions()
                 if isinstance(i, CondBr)]
        assert len(conds) == 1  # only the while-loop control remains

    def test_no_stores_in_skeleton(self):
        result = build(POINTER_CHASE, "chase")
        assert not any(
            isinstance(i, Store) for i in result.access.instructions()
        )

    def test_full_chain_coverage(self):
        result = build(POINTER_CHASE, "chase")
        memory = SimMemory()
        n = 12
        head = memory.alloc_array(8, 1, "head", init=[0])
        nxt = memory.alloc_array(
            8, n, "next", init=[i + 1 for i in range(n - 1)] + [-1]
        )
        data = memory.alloc_array(8, n, "data", init=[0.3 * i for i in range(n)])
        loads, prefetches = set(), set()
        Interpreter(memory, observer=lambda e: loads.add(e.address)
                    if e.kind == "load" else None).run(
            result.task, [head, nxt, data, n])
        Interpreter(memory, observer=lambda e: prefetches.add(e.address)
                    if e.kind == "prefetch" else None).run(
            result.access, [head, nxt, data, n])
        assert loads <= prefetches


class TestCFGSimplification:
    GUARDED = """
    task guarded(A: f64*, B: f64*, n: i64) {
      var i: i64;
      for (i = 0; i < n; i = i + 1) {
        if (A[i] > 0.5) {
          B[i] = A[i] * 2.0;
        }
      }
    }
    """

    def test_conditional_removed_by_default(self):
        result = build(self.GUARDED, "guarded")
        conds = [i for i in result.access.instructions()
                 if isinstance(i, CondBr)]
        assert len(conds) == 1  # only the loop header
        assert result.skeleton_stats.conditionals_removed == 1

    def test_guaranteed_reads_still_prefetched(self):
        result = build(self.GUARDED, "guarded")
        prefetches = [i for i in result.access.instructions()
                      if isinstance(i, Prefetch)]
        assert prefetches  # A[i] is read unconditionally (the guard)

    def test_keep_conditionals_option(self):
        result = build(
            self.GUARDED, "guarded",
            AccessPhaseOptions(
                force_method="skeleton",
                skeleton=SkeletonOptions(keep_conditionals=True),
            ),
        )
        conds = [i for i in result.access.instructions()
                 if isinstance(i, CondBr)]
        assert len(conds) == 2  # loop header + data-dependent branch
        assert result.skeleton_stats.conditionals_removed == 0


class TestLegality:
    def test_non_inlinable_call_bails(self):
        src = (
            "func helper(A: f64*, i: i64) -> f64 { return A[i]; }"
            "task t(A: f64*, n: i64) { var i: i64;"
            " for (i = 0; i < n; i = i + 1) { A[i] = helper(A, i); } }"
        )
        module = compile_source(src)
        optimize_module(module)
        module.function("helper").no_inline = True
        result = generate_access_phase(module.function("t"), module=module)
        assert result.method == "none"
        assert result.access is None
        assert "non-inlinable" in result.reason

    def test_inlinable_call_proceeds(self):
        src = (
            "func helper(A: f64*, i: i64) -> f64 { return A[i]; }"
            "task t(A: f64*, n: i64) { var i: i64;"
            " for (i = 0; i < n; i = i + 1) { A[i] = helper(A, i) + 1.0; } }"
        )
        result = build(src, "t")
        assert result.access is not None
        assert not any(
            isinstance(i, Call) for i in result.access.instructions()
        )

    def test_store_alias_warning(self):
        result = build(POINTER_CHASE, "chase")
        assert any("speculative" in w
                   for w in result.skeleton_stats.warnings)


class TestLineDedupe:
    RECORDS = """
    task rec(state: i64*, amp: f64*, n: i64) {
      var i: i64; var s: i64;
      for (i = 0; i < n; i = i + 1) {
        s = state[4*i];
        amp[4*i] = amp[4*i] * 0.5 + amp[4*i + 1];
      }
    }
    """

    def test_same_line_prefetches_dropped(self):
        base = build(
            self.RECORDS, "rec",
            AccessPhaseOptions(force_method="skeleton"),
        )
        deduped = build(
            self.RECORDS, "rec",
            AccessPhaseOptions(
                force_method="skeleton",
                skeleton=SkeletonOptions(line_dedupe=True),
            ),
        )
        count = lambda r: sum(
            1 for i in r.access.instructions() if isinstance(i, Prefetch)
        )
        assert count(deduped) < count(base)
        assert deduped.skeleton_stats.line_deduped >= 1


class TestPrefetchStoresAblation:
    STORE_HEAVY = """
    task wr(A: f64*, B: f64*, n: i64) {
      var i: i64;
      for (i = 0; i < n; i = i + 1) {
        B[i] = A[i] + 1.0;
      }
    }
    """

    def test_store_addresses_optionally_prefetched(self):
        without = build(self.STORE_HEAVY, "wr")
        with_stores = build(
            self.STORE_HEAVY, "wr",
            AccessPhaseOptions(
                force_method="skeleton",
                skeleton=SkeletonOptions(prefetch_stores=True),
            ),
        )
        count = lambda r: sum(
            1 for i in r.access.instructions() if isinstance(i, Prefetch)
        )
        assert count(with_stores) > count(without)
