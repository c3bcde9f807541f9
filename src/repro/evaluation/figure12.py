"""Figures 1 and 2: analysis-precision demos.

Figure 1 contrasts the *memory range analysis* (Section 5.1.1's simple
union of per-instruction address ranges) with the exact polyhedral
analysis, on the two LU kernels of Listing 1: range analysis is tight
when the whole matrix is accessed but prefetches full rows when only a
block is touched.

Figure 2 shows why accesses to different blocks of one array are split
into classes: a single convex hull would cover the dead space between
the blocks, while per-class hulls cover exactly the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.memory_access import AccessAnalysis
from ..frontend import compile_source
from ..polyhedral.chernikova import convex_union
from ..polyhedral.polyhedron import Polyhedron, union_enumerate
from ..transform import optimize_module
from ..transform.access_phase.affine import access_polyhedron
from ..transform.access_phase.forms import SymbolTable

LISTING1_FULL = """
task lu_full(A: f64*, N: i64) {
  var i: i64; var j: i64; var k: i64;
  for (i = 0; i < N; i = i + 1) {
    for (j = i + 1; j < N; j = j + 1) {
      A[j*N + i] = A[j*N + i] / A[i*N + i];
      for (k = i + 1; k < N; k = k + 1) {
        A[j*N + k] = A[j*N + k] - A[j*N + i] * A[i*N + k];
      }
    }
  }
}
"""

LISTING1_BLOCK = """
task lu_block(A: f64*, N: i64, block: i64) {
  var i: i64; var j: i64; var k: i64;
  for (i = 0; i < block; i = i + 1) {
    for (j = i + 1; j < block; j = j + 1) {
      A[j*N + i] = A[j*N + i] / A[i*N + i];
      for (k = i + 1; k < block; k = k + 1) {
        A[j*N + k] = A[j*N + k] - A[j*N + i] * A[i*N + k];
      }
    }
  }
}
"""

LISTING3_BLOCKS = """
task lu_two_blocks(A: f64*, N: i64, block: i64,
                   Ax: i64, Ay: i64, Dx: i64, Dy: i64) {
  var i: i64; var j: i64; var k: i64;
  for (i = 0; i < block; i = i + 1) {
    for (j = i + 1; j < block; j = j + 1) {
      for (k = i + 1; k < block; k = k + 1) {
        A[(Ax+j)*N + Ay+k] = A[(Ax+j)*N + Ay+k]
                           - A[(Dx+j)*N + Dy+i] * A[(Ax+i)*N + Ay+k];
      }
    }
  }
}
"""


@dataclass(frozen=True)
class KernelSpec:
    """A demo kernel, fully specified: source text, entry task, and the
    parameter instantiation to analyze it under."""

    source: str
    task: str
    params: dict = field(default_factory=dict)


#: Listing 1's two kernels at their Figure 1 instantiations.
FIGURE1_SPECS = (
    KernelSpec(LISTING1_FULL, "lu_full", {"N": 12}),
    KernelSpec(LISTING1_BLOCK, "lu_block", {"N": 24, "block": 8}),
)

#: The two-block kernel at its Figure 2 instantiation.
FIGURE2_SPEC = KernelSpec(
    LISTING3_BLOCKS, "lu_two_blocks",
    {"N": 32, "block": 6, "Ax": 0, "Ay": 16, "Dx": 16, "Dy": 0},
)


@dataclass
class AnalysisDemo:
    """Point counts of the three analyses on one kernel instance."""

    kernel: str
    params: dict
    exact_cells: int          # |union of access sets| (NOrig)
    hull_cells: int           # |convex union| (NconvUn), per class, summed
    range_cells: int          # |union of linear address ranges|
    classes: int


def _access_polyhedra(source: str, task_name: str):
    module = compile_source(source)
    optimize_module(module)
    analysis = AccessAnalysis(module.function(task_name))
    symtab = SymbolTable()
    by_class: dict[tuple, list[Polyhedron]] = {}
    strides_by_class: dict[tuple, list] = {}
    for access in analysis.real_accesses():
        if access.kind != "load":
            continue
        poly, strides, offsets = access_polyhedron(access, analysis, symtab)
        key = (id(access.base), tuple(strides), offsets)
        by_class.setdefault(key, []).append(poly)
        strides_by_class[key] = strides
    return by_class, strides_by_class


def _range_cells(polys: list[Polyhedron], strides, params: dict) -> int:
    """Cells covered by the union of linear [min, max] address ranges."""
    ranges = []
    stride_values = []
    for stride in strides:
        value = 1
        for sym in stride:
            value *= params[sym]
        stride_values.append(value)
    for poly in polys:
        indices = [
            sum(int(coord) * stride_values[d] for d, coord in enumerate(point))
            for point in poly.enumerate_points(params)
        ]
        if indices:
            ranges.append((min(indices), max(indices)))
    covered: set[int] = set()
    for lo, hi in ranges:
        covered.update(range(lo, hi + 1))
    return len(covered)


def analyze_kernel(spec: KernelSpec) -> AnalysisDemo:
    """All three analyses on one kernel."""
    return _analyze(spec, *_access_polyhedra(spec.source, spec.task))


def _analyze(spec: KernelSpec, by_class, strides_by_class) -> AnalysisDemo:
    params = spec.params
    exact = 0
    hull = 0
    range_total = 0
    for key, polys in by_class.items():
        exact += len(union_enumerate(polys, params))
        hull_poly = convex_union(polys)
        hull += hull_poly.count_points(params)
        range_total += _range_cells(polys, strides_by_class[key], params)
    return AnalysisDemo(
        kernel=spec.task, params=params,
        exact_cells=exact, hull_cells=hull, range_cells=range_total,
        classes=len(by_class),
    )


def single_hull_cells(spec: KernelSpec) -> int:
    """Figure 2's strawman: one hull over ALL accesses (classes merged).

    The classes depend on disjoint translation parameters, so the
    combined hull is only bounded once the parameters are instantiated.
    """
    by_class, _ = _access_polyhedra(spec.source, spec.task)
    return _single_hull_cells(spec, by_class)


def _single_hull_cells(spec: KernelSpec, by_class) -> int:
    all_polys = [
        p.with_param_values(spec.params)
        for polys in by_class.values() for p in polys
    ]
    hull = convex_union(all_polys)
    return hull.count_points({})


def figure1_demo() -> list[AnalysisDemo]:
    """Listing 1's two kernels under all three analyses."""
    return [analyze_kernel(spec) for spec in FIGURE1_SPECS]


def figure2_demo() -> dict:
    """Per-class hulls vs one global hull on the two-block kernel, from
    one compile and analysis of it."""
    by_class, strides_by_class = _access_polyhedra(
        FIGURE2_SPEC.source, FIGURE2_SPEC.task
    )
    demo = _analyze(FIGURE2_SPEC, by_class, strides_by_class)
    return {
        "params": dict(FIGURE2_SPEC.params),
        "classes": demo.classes,
        "exact_cells": demo.exact_cells,
        "per_class_hull_cells": demo.hull_cells,
        "single_hull_cells": _single_hull_cells(FIGURE2_SPEC, by_class),
    }


def render_figure1(demos: list[AnalysisDemo]) -> str:
    lines = [
        "Figure 1: memory-range vs exact (polyhedral) analysis",
        "%-12s %-28s %10s %10s %10s" % (
            "kernel", "params", "exact", "hull", "range",
        ),
    ]
    for demo in demos:
        lines.append("%-12s %-28s %10d %10d %10d" % (
            demo.kernel,
            ",".join("%s=%s" % kv for kv in demo.params.items()),
            demo.exact_cells, demo.hull_cells, demo.range_cells,
        ))
    return "\n".join(lines)


def render_figure2(result: dict) -> str:
    return "\n".join([
        "Figure 2: access classes on two blocks of one array",
        "  classes detected:        %d" % result["classes"],
        "  exact accessed cells:    %d" % result["exact_cells"],
        "  per-class hull cells:    %d (prefetched by the compiler)"
        % result["per_class_hull_cells"],
        "  single-hull cells:       %d (would cover the dead in-between space)"
        % result["single_hull_cells"],
    ])
