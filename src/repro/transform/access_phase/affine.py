"""Affine access-phase generation via the polyhedral model (Section 5.1).

For each (read) memory access of an affine task we compute the exact set
of touched array cells as a parametric polyhedron over subscript
dimensions.  Accesses to the same array are grouped into *classes* by
the translation parameters of their subscripts (Section 5.1's
classA/classD separation); per class we take the convex union of the
access sets and accept the hull only when its Ehrhart count does not
exceed the count of the original union (``NconvUn - th <= NOrig``).
Finally, loop nests with identical rectangular extents are merged so a
single nest prefetches several arrays/classes (Listings 2(b), 3(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...analysis.loops import Loop
from ...analysis.memory_access import AccessAnalysis, MemoryAccess
from ...ir import Value
from ...polyhedral.affine import AffineExpr, Constraint
from ...polyhedral.chernikova import convex_union
from ...polyhedral.codegen import (
    CodegenError,
    ScanNest,
    generate_scan_nest,
)
from ...polyhedral.counting import (
    count_polynomial,
    counts_dominate,
    union_count_polynomial,
)
from ...polyhedral.polyhedron import Polyhedron
from .delinearize import DelinearizeError, delinearize
from .forms import FormError, IndexForm, SymbolTable


class AffineGenerationError(Exception):
    """Raised when the polyhedral path cannot handle the task."""


@dataclass
class AccessClass:
    """Accesses to one array sharing translation parameters."""

    base: Value
    strides: list[tuple]  # per-dim tuples of stride param names
    offsets_key: tuple  # per-dim frozenset of offset parameter names
    element_size: int = 8
    polyhedra: list[Polyhedron] = field(default_factory=list)


@dataclass
class PrefetchSpec:
    """One prefetch statement inside a scan nest."""

    base: Value
    index: IndexForm
    element_size: int


@dataclass
class AccessNest:
    """A scan nest plus the prefetches executed in its innermost body."""

    nest: ScanNest
    prefetches: list[PrefetchSpec]


@dataclass
class AffinePlan:
    """The full prefetch plan for a task, ready for IR emission."""

    nests: list[AccessNest]
    symtab: SymbolTable
    hull_decisions: list[dict] = field(default_factory=list)
    merged: int = 0


def _enclosing_loops(access: MemoryAccess) -> list[Loop]:
    """Loops containing the access, outermost first."""
    loops: list[Loop] = []
    loop = access.loop
    while loop is not None:
        loops.append(loop)
        loop = loop.parent
    return list(reversed(loops))


def _domain_constraints(loops: list[Loop], analysis: AccessAnalysis,
                        symtab: SymbolTable) -> tuple[list[str], list[Constraint]]:
    """Dimension names and constraints of the iteration domain."""
    from .forms import linear_to_affine

    dims: list[str] = []
    constraints: list[Constraint] = []
    for loop in loops:
        iv = loop.induction_variable()
        if iv is None:
            raise AffineGenerationError(
                "loop %s has no canonical IV" % loop.header.name
            )
        bounds = analysis.scev.iv_bounds(iv.phi)
        if bounds is None:
            raise AffineGenerationError(
                "loop %s bounds not affine" % loop.header.name
            )
        init, bound, predicate = bounds
        dim = symtab.iv_name(iv.phi)
        dims.append(dim)
        try:
            init_expr = linear_to_affine(init, symtab)
            bound_expr = linear_to_affine(bound, symtab)
        except FormError as exc:
            raise AffineGenerationError(str(exc)) from exc
        var = AffineExpr.symbol(dim)
        constraints.append(Constraint.ge(var - init_expr))
        if predicate == "slt":
            constraints.append(Constraint.ge(bound_expr - var - 1))
        elif predicate == "sle":
            constraints.append(Constraint.ge(bound_expr - var))
        else:
            raise AffineGenerationError(
                "unsupported loop predicate %r" % predicate
            )
    return dims, constraints


def access_polyhedron(access: MemoryAccess, analysis: AccessAnalysis,
                      symtab: SymbolTable):
    """(polyhedron over subscript dims, strides, offsets key) of one access."""
    from .forms import linear_to_affine

    if access.index is None or access.base is None:
        raise AffineGenerationError("access is not affine: %r" % access)
    try:
        delin = delinearize(access.index)
    except DelinearizeError as exc:
        raise AffineGenerationError(str(exc)) from exc

    loops = _enclosing_loops(access)
    iv_dims, domain = _domain_constraints(loops, analysis, symtab)

    subscript_dims = ["s%d" % d for d in range(delin.depth)]
    try:
        subscript_exprs = [
            linear_to_affine(expr, symtab) for expr in delin.subscripts
        ]
    except FormError as exc:
        raise AffineGenerationError(str(exc)) from exc

    constraints = list(domain)
    for dim_name, expr in zip(subscript_dims, subscript_exprs):
        constraints.append(
            Constraint.eq(AffineExpr.symbol(dim_name) - expr)
        )
    params = sorted(
        {
            sym
            for con in constraints
            for sym in con.symbols()
            if sym not in subscript_dims and sym not in iv_dims
        }
    )
    combined = Polyhedron(
        subscript_dims + iv_dims, constraints, params
    )
    projected = combined.project_onto(subscript_dims)

    stride_names = [
        tuple(sorted(symtab.param_name(p) for p in stride))
        for stride in delin.strides
    ]
    offsets_key = tuple(
        frozenset(
            sym for sym in expr.coeffs
            if not any(sym == iv for iv in iv_dims)
        )
        for expr in subscript_exprs
    )
    return projected, stride_names, offsets_key


def build_classes(analysis: AccessAnalysis, symtab: SymbolTable,
                  include_stores: bool = False) -> list[AccessClass]:
    """Group the task's read accesses into array/parameter classes."""
    classes: dict[tuple, AccessClass] = {}
    for access in analysis.real_accesses():
        if access.kind == "store" and not include_stores:
            continue
        if access.kind == "prefetch":
            continue
        poly, strides, offsets_key = access_polyhedron(
            access, analysis, symtab
        )
        key = (
            id(access.base),
            tuple(strides),
            offsets_key,
            access.element_size,
        )
        cls = classes.get(key)
        if cls is None:
            cls = AccessClass(
                base=access.base, strides=list(strides),
                offsets_key=offsets_key, element_size=access.element_size,
            )
            classes[key] = cls
        if not any(_poly_equal(poly, existing) for existing in cls.polyhedra):
            cls.polyhedra.append(poly)
    return list(classes.values())


def _poly_equal(a: Polyhedron, b: Polyhedron) -> bool:
    return (
        a.dims == b.dims
        and set(a.constraints) == set(b.constraints)
    )


def plan_affine_access(analysis: AccessAnalysis,
                       hull_threshold: int = 0,
                       merge_nests: bool = True) -> AffinePlan:
    """Build the complete prefetch plan for an affine task."""
    symtab = SymbolTable()
    classes = build_classes(analysis, symtab)
    if not classes:
        raise AffineGenerationError("task has no prefetchable reads")

    plan = AffinePlan(nests=[], symtab=symtab)
    scan_counter = 0
    pending: list[AccessNest] = []

    for cls in classes:
        chosen = _choose_polyhedra(cls, hull_threshold, plan.hull_decisions)
        for poly in chosen:
            # Give each nest unique scan variables.
            rename = {
                d: "x%d_%d" % (scan_counter, i)
                for i, d in enumerate(poly.dims)
            }
            scan_counter += 1
            renamed = poly.rename_dims(rename)
            try:
                nest = generate_scan_nest(renamed)
            except CodegenError as exc:
                raise AffineGenerationError(str(exc)) from exc
            subscripts = [
                AffineExpr.symbol(rename[d]) for d in poly.dims
            ]
            index = IndexForm.from_subscripts(subscripts, cls.strides)
            spec = PrefetchSpec(
                base=cls.base, index=index, element_size=cls.element_size,
            )
            pending.append(AccessNest(nest=nest, prefetches=[spec]))

    if merge_nests:
        plan.nests, plan.merged = _merge_nests(pending)
    else:
        plan.nests = pending
    return plan


def _choose_polyhedra(cls: AccessClass, threshold: int,
                      decisions: list[dict]) -> list[Polyhedron]:
    """Hull-vs-individual decision (Section 5.1.1 trade-off 1)."""
    if len(cls.polyhedra) == 1:
        decisions.append({
            "base": cls.base.name, "hull": True, "reason": "single access",
        })
        return cls.polyhedra
    hull = convex_union(cls.polyhedra)
    degree = len(hull.dims)
    try:
        n_conv = count_polynomial(hull, degree=degree)
        n_orig = union_count_polynomial(cls.polyhedra, degree=degree)
    except ValueError:
        # The count is only piecewise polynomial (the sample grid crosses
        # Ehrhart chambers, e.g. overlapping translated triangles whose
        # intersection appears/disappears with the parameters).  The hull
        # test is inconclusive, so take the safe branch of the paper's
        # trade-off: scan each polytope individually.
        decisions.append({
            "base": cls.base.name,
            "hull": False,
            "reason": "count is chambered; hull test inconclusive",
        })
        return cls.polyhedra
    use_hull = counts_dominate(n_conv, n_orig, threshold=threshold)
    decisions.append({
        "base": cls.base.name,
        "hull": use_hull,
        "NconvUn": repr(n_conv),
        "NOrig": repr(n_orig),
    })
    return [hull] if use_hull else cls.polyhedra


def _merge_nests(nests: list[AccessNest]) -> tuple[list[AccessNest], int]:
    """Merge rectangular nests with identical extents (Section 5.1.2-3)."""
    merged: list[AccessNest] = []
    used = [False] * len(nests)
    merge_count = 0
    for i, candidate in enumerate(nests):
        if used[i]:
            continue
        group = [candidate]
        used[i] = True
        extents_i = _rect_extents(candidate.nest)
        if extents_i is not None:
            for j in range(i + 1, len(nests)):
                if used[j]:
                    continue
                extents_j = _rect_extents(nests[j].nest)
                if extents_j is not None and _extents_equal(
                    extents_i, extents_j
                ):
                    group.append(nests[j])
                    used[j] = True
        if len(group) == 1:
            merged.append(candidate)
            continue
        merge_count += len(group) - 1
        merged.append(_merge_group(group))
    return merged, merge_count


def _rect_extents(nest: ScanNest) -> Optional[list[AffineExpr]]:
    """Per-level trip count when the nest is a rectangular box."""
    extents = []
    scan_vars = {loop.var for loop in nest.loops}
    for loop in nest.loops:
        if len(loop.lowers) != 1 or len(loop.uppers) != 1:
            return None
        lo, hi = loop.lowers[0], loop.uppers[0]
        if lo.divisor != 1 or hi.divisor != 1:
            return None
        if lo.expr.symbols() & scan_vars or hi.expr.symbols() & scan_vars:
            return None
        extents.append(hi.expr - lo.expr + AffineExpr.constant(1))
    return extents


def _extents_equal(a: list[AffineExpr], b: list[AffineExpr]) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def _merge_group(group: list[AccessNest]) -> AccessNest:
    """Rebase every nest in the group onto the first nest's scan space.

    All nests are rectangular with equal extents; nest k's subscript
    along level d is ``lower_k_d + (var_0_d - lower_0_d)``.
    """
    canonical = group[0]
    canon_vars = [l.var for l in canonical.nest.loops]
    canon_lowers = [l.lowers[0].expr for l in canonical.nest.loops]
    prefetches = list(canonical.prefetches)
    for other in group[1:]:
        substitution = {}
        for d, loop in enumerate(other.nest.loops):
            # other_var == other_lower + (canon_var - canon_lower)
            substitution[loop.var] = (
                loop.lowers[0].expr
                + AffineExpr.symbol(canon_vars[d])
                - canon_lowers[d]
            )
        for spec in other.prefetches:
            prefetches.append(
                PrefetchSpec(
                    base=spec.base,
                    index=_substitute_index(spec.index, substitution),
                    element_size=spec.element_size,
                )
            )
    return AccessNest(nest=canonical.nest, prefetches=prefetches)


def _substitute_index(index: IndexForm, substitution: dict) -> IndexForm:
    from .forms import IndexTerm

    terms = []
    for term in index.terms:
        if term.scan_var is None or term.scan_var not in substitution:
            terms.append(term)
            continue
        replacement: AffineExpr = substitution[term.scan_var]
        for sym, coeff in replacement.coeffs.items():
            if coeff.denominator != 1:
                raise FormError("fractional merge substitution")
            terms.append(
                IndexTerm(term.coeff * int(coeff), term.params, sym)
            )
        if replacement.const != 0:
            if replacement.const.denominator != 1:
                raise FormError("fractional merge substitution")
            terms.append(
                IndexTerm(term.coeff * int(replacement.const), term.params, None)
            )
    return IndexForm(terms)
