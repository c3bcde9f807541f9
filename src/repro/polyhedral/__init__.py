"""Polyhedral model substrate (PolyLib equivalent).

Exact-rational affine expressions, H-representation polyhedra with
Fourier–Motzkin projection, Chernikova double description for H↔V
conversion and convex union, Ehrhart-style parametric counting, and
loop-nest code generation from polyhedra.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "affine": ("AffineExpr", "Constraint"),
    "chernikova": ("convex_union", "double_description", "from_generators",
                   "generators"),
    "codegen": ("Bound", "CodegenError", "LoopSpec", "ScanNest",
                "generate_scan_nest"),
    "counting": ("EhrhartPolynomial", "count_polynomial", "counts_dominate",
                 "interpolate_count", "union_count_polynomial"),
    "polyhedron": ("Polyhedron", "union_count", "union_enumerate"),
})
