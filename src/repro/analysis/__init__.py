"""Compiler analyses: CFG, dominators, loops, SCEV, memory accesses."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cfg": ("predecessors_map", "reachable_blocks",
            "remove_unreachable_blocks", "reverse_postorder",
            "successors_map"),
    "dominators": ("DominatorTree",),
    "loops": ("InductionVariable", "Loop", "LoopInfo"),
    "memory_access": ("AccessAnalysis", "LoopClassification",
                      "MemoryAccess", "classify_access", "trace_pointer"),
    "scalar_evolution": ("LinearExpr", "ScalarEvolution"),
})
