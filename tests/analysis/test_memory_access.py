"""Memory-access classification: affine vs non-affine, task affinity."""

from repro.analysis import AccessAnalysis
from repro.frontend import compile_source
from repro.transform import optimize_function
from tests.conftest import LU_KERNEL, POINTER_CHASE


def analysis_for(source, name):
    module = compile_source(source)
    func = module.function(name)
    optimize_function(func)
    return AccessAnalysis(func)


class TestAffineTasks:
    def test_lu_fully_affine(self):
        analysis = analysis_for(LU_KERNEL, "lu_kernel")
        assert analysis.is_affine_task()
        assert all(a.is_affine for a in analysis.real_accesses())
        assert len(analysis.affine_target_loops()) == 1
        assert len(analysis.target_loops()) == 1

    def test_accesses_have_base_and_index(self):
        analysis = analysis_for(LU_KERNEL, "lu_kernel")
        for access in analysis.real_accesses():
            assert access.base is not None
            assert access.base.name == "A"
            assert access.index is not None

    def test_loads_and_stores_partitioned(self):
        analysis = analysis_for(LU_KERNEL, "lu_kernel")
        assert len(analysis.loads()) == 5
        assert len(analysis.stores()) == 2

    def test_block_offsets_stay_affine(self):
        src = ("task t(A: f64*, N: i64, B: i64, off: i64) {"
               " var i: i64; var j: i64;"
               " for (i = 0; i < B; i = i + 1) {"
               "  for (j = 0; j < B; j = j + 1) {"
               "   A[(off+i)*N + off+j] = 0.0; } } }")
        analysis = analysis_for(src, "t")
        assert analysis.is_affine_task()


class TestNonAffineTasks:
    def test_pointer_chase_not_affine(self):
        analysis = analysis_for(POINTER_CHASE, "chase")
        assert not analysis.is_affine_task()

    def test_indirection_makes_access_non_affine(self):
        src = ("task t(A: i64*, B: f64*, n: i64) { var i: i64;"
               " for (i = 0; i < n; i = i + 1) { B[A[i]] = 1.0; } }")
        analysis = analysis_for(src, "t")
        gather = [a for a in analysis.real_accesses() if a.base is not None
                  and a.base.name == "B"]
        assert gather and not gather[0].is_affine
        assert not analysis.is_affine_task()

    def test_data_dependent_branch_rejected(self):
        src = ("task t(A: f64*, n: i64) { var i: i64;"
               " for (i = 0; i < n; i = i + 1) {"
               "  if (A[i] > 0.0) { A[i] = 0.0; } } }")
        analysis = analysis_for(src, "t")
        assert not analysis.is_affine_task()
        (lc,) = [c for c in analysis.loop_classes if c.loop.parent is None]
        assert any("control flow" in r for r in lc.reasons)

    def test_loaded_bound_rejected(self):
        src = ("task t(P: i64*, A: f64*) { var i: i64; var hi: i64;"
               " hi = P[0];"
               " for (i = 0; i < hi; i = i + 1) { A[i] = 0.0; } }")
        analysis = analysis_for(src, "t")
        assert not analysis.is_affine_task()

    def test_mixed_loops_counted_separately(self):
        src = ("task t(A: f64*, B: i64*, n: i64) { var i: i64;"
               " for (i = 0; i < n; i = i + 1) { A[i] = 1.0; }"
               " for (i = 0; i < n; i = i + 1) { A[B[i]] = 2.0; } }")
        analysis = analysis_for(src, "t")
        assert len(analysis.target_loops()) == 2
        assert len(analysis.affine_target_loops()) == 1
        assert not analysis.is_affine_task()


class TestTracePointer:
    def test_chained_geps_accumulate(self):
        src = ("task t(A: f64*, n: i64) { var i: i64;"
               " for (i = 0; i < n; i = i + 1) {"
               "  var p: f64* = A + n; p[i] = 0.0; } }")
        analysis = analysis_for(src, "t")
        (store,) = analysis.stores()
        assert store.base is not None and store.base.name == "A"
        assert store.is_affine
        # index should mention both the IV and the n offset
        assert len(store.index.induction_phis()) == 1
        assert store.index.parameters()

    def test_alloca_traffic_flagged_local(self):
        # Before mem2reg, locals go through allocas.
        module = compile_source(
            "task t(A: f64*) { var x: f64 = 1.0; A[0] = x; }"
        )
        analysis = AccessAnalysis(module.function("t"))
        locals_ = [a for a in analysis.accesses if a.is_local_scalar]
        assert locals_  # alloca loads/stores detected
        assert all(a not in analysis.real_accesses() for a in locals_)
