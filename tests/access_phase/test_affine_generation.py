"""Affine access-phase generation: plans, hull decisions, merging, and
the fundamental coverage guarantee (prefetches ⊇ loads)."""

from repro.frontend import compile_source
from repro.interp import Interpreter, SimMemory
from repro.ir import Prefetch, Store, verify_function
from repro.transform import optimize_module
from repro.transform.access_phase import (
    AccessPhaseOptions,
    generate_access_phase,
)


def build(source, task_name, options=None):
    module = compile_source(source)
    optimize_module(module)
    task = module.function(task_name)
    result = generate_access_phase(task, module=module, options=options)
    if result.access is not None:
        verify_function(result.access)
    return result, module


def coverage(result, args, alloc):
    """(loads of execute, prefetches of access) address sets."""
    memory = SimMemory()
    concrete = alloc(memory)
    loads, prefetches = set(), set()
    interp = Interpreter(
        memory,
        observer=lambda e: loads.add(e.address) if e.kind == "load" else None,
    )
    interp.run(result.task, concrete)
    interp2 = Interpreter(
        memory,
        observer=lambda e: prefetches.add(e.address)
        if e.kind == "prefetch" else None,
    )
    interp2.run(result.access, concrete)
    return loads, prefetches


LU = """
task lu(A: f64*, N: i64, B: i64) {
  var i: i64; var j: i64; var k: i64;
  for (i = 0; i < B; i = i + 1) {
    for (j = i + 1; j < B; j = j + 1) {
      A[j*N + i] = A[j*N + i] / A[i*N + i];
      for (k = i + 1; k < B; k = k + 1) {
        A[j*N + k] = A[j*N + k] - A[j*N + i] * A[i*N + k];
      }
    }
  }
}
"""


class TestLUGeneration:
    def test_method_is_affine(self):
        result, _ = build(LU, "lu")
        assert result.method == "affine"
        assert result.affine_loops == 1 and result.total_loops == 1

    def test_access_nest_is_shallower(self):
        """Listing 1(c): depth-3 execute loop becomes a depth-2 scan."""
        result, _ = build(LU, "lu")
        (nest,) = result.plan.nests
        assert nest.nest.depth == 2

    def test_full_square_hull_accepted(self):
        result, _ = build(LU, "lu")
        (decision,) = result.plan.hull_decisions
        assert decision["hull"] is True

    def test_no_stores_in_access_version(self):
        result, _ = build(LU, "lu")
        assert not any(
            isinstance(i, Store) for i in result.access.instructions()
        )

    def test_coverage_exact(self):
        result, _ = build(LU, "lu")
        loads, prefetches = coverage(
            result, None,
            lambda m: [m.alloc_array(8, 64, "A",
                                     init=[1.0 + i for i in range(64)]), 8, 6],
        )
        assert loads == prefetches  # square hull == touched set for LU

    def test_access_does_not_write(self):
        result, _ = build(LU, "lu")
        memory = SimMemory()
        base = memory.alloc_array(8, 64, "A", init=[float(i) for i in range(64)])
        snapshot = dict(memory._cells)
        Interpreter(memory).run(result.access, [base, 8, 6])
        assert memory._cells == snapshot


TWO_ARRAYS = """
task two(A: f64*, D: f64*, N: i64, B: i64) {
  var i: i64; var j: i64; var k: i64;
  for (i = 0; i < B; i = i + 1) {
    for (j = 0; j < B; j = j + 1) {
      for (k = 0; k < B; k = k + 1) {
        A[i*N + k] = A[i*N + k] - D[i*N + j] * A[j*N + k];
      }
    }
  }
}
"""


class TestClassesAndMerging:
    def test_two_arrays_two_classes(self):
        result, _ = build(TWO_ARRAYS, "two")
        bases = {spec.base.name for nest in result.plan.nests
                 for spec in nest.prefetches}
        assert bases == {"A", "D"}

    def test_equal_extent_nests_merged(self):
        """Listing 2(b): one nest prefetches both arrays."""
        result, _ = build(TWO_ARRAYS, "two")
        assert len(result.plan.nests) == 1
        assert result.plan.merged >= 1

    def test_merge_can_be_disabled(self):
        result, _ = build(
            TWO_ARRAYS, "two", AccessPhaseOptions(merge_nests=False)
        )
        assert len(result.plan.nests) == 2

    def test_coverage_both_arrays(self):
        result, _ = build(TWO_ARRAYS, "two")

        def alloc(m):
            a = m.alloc_array(8, 64, "A", init=[1.0] * 64)
            d = m.alloc_array(8, 64, "D", init=[0.5] * 64)
            return [a, d, 8, 6]

        loads, prefetches = coverage(result, None, alloc)
        assert loads <= prefetches


BLOCKS = """
task blocks(A: f64*, N: i64, B: i64, Ax: i64, Ay: i64, Dx: i64, Dy: i64) {
  var i: i64; var j: i64; var k: i64;
  for (i = 0; i < B; i = i + 1) {
    for (j = i + 1; j < B; j = j + 1) {
      for (k = i + 1; k < B; k = k + 1) {
        A[(Ax+j)*N + Ay+k] = A[(Ax+j)*N + Ay+k]
                           - A[(Dx+j)*N + Dy+i] * A[(Ax+i)*N + Ay+k];
      }
    }
  }
}
"""


class TestBlockClasses:
    def test_blocks_separate_into_two_classes(self):
        """Listing 3: classA (Ax, Ay) and classD (Dx, Dy)."""
        result, _ = build(BLOCKS, "blocks")
        keys = set()
        for nest in result.plan.nests:
            for spec in nest.prefetches:
                keys.add(frozenset(
                    sym for term in spec.index.terms
                    for sym in ([term.scan_var] if term.scan_var else [])
                ))
        assert result.method == "affine"
        assert len(result.plan.hull_decisions) == 2

    def test_no_dead_space_prefetched(self):
        result, _ = build(BLOCKS, "blocks")
        N, B = 24, 5
        params = dict(N=N, B=B, Ax=0, Ay=12, Dx=12, Dy=0)

        def alloc(m):
            base = m.alloc_array(8, N * N, "A", init=[1.0] * (N * N))
            alloc.base = base
            return [base, N, B, params["Ax"], params["Ay"],
                    params["Dx"], params["Dy"]]

        loads, prefetches = coverage(result, None, alloc)
        assert loads <= prefetches
        # Nothing outside the two B x B blocks may be prefetched.
        for addr in prefetches:
            idx = (addr - alloc.base) // 8
            r, c = divmod(idx, N)
            in_a = 0 <= r < B and 12 <= c < 12 + B
            in_d = 12 <= r < 12 + B and 0 <= c < B
            assert in_a or in_d


class TestHullRejection:
    DISJOINT = """
    task disjoint(A: f64*, n: i64) {
      var i: i64;
      for (i = 0; i < n; i = i + 1) {
        A[i] = A[i] + A[i + 100000];
      }
    }
    """

    def test_far_apart_accesses_not_hulled(self):
        result, _ = build(self.DISJOINT, "disjoint")
        (decision,) = result.plan.hull_decisions
        assert decision["hull"] is False
        # The two exact per-access nests have identical extents, so the
        # merge step still fuses them into one nest with two prefetches.
        specs = [s for nest in result.plan.nests for s in nest.prefetches]
        assert len(specs) == 2

    def test_threshold_can_force_hull(self):
        result, _ = build(
            self.DISJOINT, "disjoint",
            AccessPhaseOptions(hull_threshold=10 ** 7),
        )
        (decision,) = result.plan.hull_decisions
        assert decision["hull"] is True

    # Two translated triangles whose overlap appears/disappears with
    # (N, B): the union count is piecewise polynomial, so Ehrhart
    # interpolation cannot fit one closed form.  The hull test must
    # report "inconclusive" and scan per-polytope instead of raising.
    CHAMBERED = """
    task chambered(A: f64*, N: i64, B: i64) {
      var i: i64; var j: i64;
      for (i = 0; i < B; i = i + 1) {
        for (j = i; j < B; j = j + 1) {
          A[(i+2)*N + j] = A[(i+2)*N + j] + A[i*N + j+3] * 0.5;
        }
      }
    }
    """

    def test_chambered_union_count_bails_to_per_polytope(self):
        result, _ = build(self.CHAMBERED, "chambered")
        assert result.method == "affine"
        bails = [
            d for d in result.plan.hull_decisions
            if d.get("reason") == "count is chambered; hull test inconclusive"
        ]
        assert bails and all(d["hull"] is False for d in bails)

        loads, prefetches = coverage(
            result, None,
            lambda memory: [
                memory.alloc_array(8, 144, "A", init=[1.0] * 144), 12, 5,
            ],
        )
        assert loads <= prefetches


class TestPrefetchDedup:
    def test_duplicate_addresses_emitted_once(self):
        src = """
        task dup(A: f64*, n: i64) {
          var i: i64;
          for (i = 0; i < n; i = i + 1) {
            A[i] = A[i] * A[i] + A[i];
          }
        }
        """
        result, _ = build(src, "dup")
        prefetches = [
            i for i in result.access.instructions() if isinstance(i, Prefetch)
        ]
        assert len(prefetches) == 1
