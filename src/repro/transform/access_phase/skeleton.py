"""Skeleton access-phase generation for non-affine codes (Section 5.2).

The access version is a clone of the task keeping only (a) loop control
flow and (b) memory-address computation, with every guaranteed external
read accompanied by a prefetch.  The steps follow the paper's algorithm
summary:

1. inlining and cloning are done by the driver;
2. reads of task-external data are identified and given prefetches;
3. conditionals that do not maintain loop control flow are removed by
   rewriting their branch to the merge point (simplified CFG) — unless
   ``keep_conditionals`` asks for the naive variant;
4. stores are discarded (write addresses are not prefetched);
5. dead code elimination sweeps everything not reachable from the
   prefetch addresses or the surviving control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...analysis.dominators import post_dominator_map
from ...analysis.loops import LoopInfo
from ...analysis.memory_access import AccessAnalysis
from ...ir import (
    Alloca,
    CondBr,
    Function,
    Jump,
    Load,
    Prefetch,
    Store,
    Undef,
    predecessors_map,
)
from ..dce import dead_code_elimination
from ..simplify_cfg import simplify_cfg


@dataclass
class SkeletonOptions:
    """Knobs for the skeleton generator (naive/ablation variants)."""

    #: Keep data-dependent conditionals instead of simplifying the CFG
    #: (the "straightforward approach" of Section 5.2.1).
    keep_conditionals: bool = False
    #: Branch profile for hot-path specialization (Section 5.2.2, last
    #: paragraph): a body conditional taken at least ``hot_path_threshold``
    #: of the time is replaced by its hot successor instead of the merge
    #: point, so the dominant path's reads are prefetched too.
    hot_path_profile: object = None  # Optional[BranchProfile]
    hot_path_threshold: float = 0.9
    #: Also prefetch store addresses (the paper found this never helps
    #: and discards them; kept as an ablation switch).
    prefetch_stores: bool = False
    #: Drop prefetches that statically hit the same cache line as an
    #: earlier one (the Manual-DAE LibQ optimization, Section 6.2.3).
    line_dedupe: bool = False
    #: Cache line size used by ``line_dedupe``.
    line_bytes: int = 64


@dataclass
class SkeletonStats:
    prefetches: int = 0
    conditionals_removed: int = 0
    hot_paths_taken: int = 0
    instructions_removed: int = 0
    loads_kept: int = 0
    line_deduped: int = 0
    warnings: list[str] = field(default_factory=list)


def generate_skeleton(clone: Function, analysis: AccessAnalysis,
                      options: SkeletonOptions | None = None) -> SkeletonStats:
    """Transform ``clone`` (already inlined + optimized) in place.

    ``analysis`` is the driver's :class:`AccessAnalysis` of ``clone``,
    taken after the optimization and before any edit.
    """
    options = options or SkeletonOptions()
    stats = SkeletonStats()

    before = sum(len(b) for b in clone.blocks)

    _check_legality(analysis, stats)

    # Step 3 (Section 5.2.2): identify external reads, insert prefetches.
    _insert_prefetches(clone, analysis, options, stats)

    # Simplified CFG: drop conditionals that are not loop control flow
    # (or follow the profiled hot path where one dominates).
    if not options.keep_conditionals:
        removed, hot = _remove_body_conditionals(
            clone, analysis.loop_info,
            options.hot_path_profile, options.hot_path_threshold,
        )
        stats.conditionals_removed = removed
        stats.hot_paths_taken = hot
        _repair_phis(clone)

    # Discard stores (write accesses are not prefetched).
    for inst in list(clone.instructions()):
        if isinstance(inst, Store):
            inst.erase_from_parent()

    # Step 6: DCE removes everything not needed for prefetch addresses
    # or for the surviving control flow, then clean the CFG.
    dead_code_elimination(clone)
    simplify_cfg(clone)
    dead_code_elimination(clone)

    if options.line_dedupe:
        stats.line_deduped = _dedupe_cache_lines(clone, options.line_bytes)
        dead_code_elimination(clone)

    _dedupe_identical_prefetches(clone)
    dead_code_elimination(clone)

    after = sum(len(b) for b in clone.blocks)
    stats.instructions_removed = max(0, before - after)
    stats.prefetches = sum(
        1 for i in clone.instructions() if isinstance(i, Prefetch)
    )
    stats.loads_kept = sum(
        1 for i in clone.instructions() if isinstance(i, Load)
    )
    return stats


def _check_legality(analysis: AccessAnalysis, stats: SkeletonStats) -> None:
    """Paper Section 3.1 conditions (a)/(b), post-inlining.

    Calls were already inlined by the driver (or it bailed).  What is
    left to check: address computation must not require writing state
    visible outside the task.  Since the skeleton deletes all stores,
    the only hazard is a kept load that reads memory the task itself
    writes — the prefetch then uses stale data.  That is legal for a
    speculative prefetch but worth a warning (LBM-style coupling).
    """
    store_bases = {id(a.base) for a in analysis.stores() if a.base is not None}
    for access in analysis.loads():
        if access.base is not None and id(access.base) in store_bases:
            stats.warnings.append(
                "load of %s may alias task stores; prefetch is speculative"
                % (access.base.name or "?")
            )
            break


def _insert_prefetches(func: Function, analysis: AccessAnalysis,
                       options: SkeletonOptions, stats: SkeletonStats) -> None:
    """Accompany each external read (and optionally write) with a prefetch."""
    for access in analysis.real_accesses():
        if access.kind == "prefetch":
            continue
        if access.kind == "store" and not options.prefetch_stores:
            continue
        if access.base is None:
            # Pointer chasing bottoms out in a loaded pointer; the access
            # is still real memory, so prefetch its address too.
            pass
        inst = access.inst
        pointer = inst.pointer  # type: ignore[attr-defined]
        if isinstance(pointer, Alloca):
            continue
        prefetch = Prefetch(pointer)
        block = inst.parent
        assert block is not None
        block.insert_before(prefetch, inst)


def _remove_body_conditionals(func: Function, loop_info: LoopInfo,
                              profile=None, hot_threshold: float = 0.9):
    """Rewrite non-loop-control conditionals.

    Default: jump straight to the merge point (only guaranteed reads are
    prefetched).  With a branch profile, a sufficiently biased branch is
    instead replaced by its *hot* successor, tailoring the access
    version to the dominant path.  Returns ``(removed, hot_taken)``.
    """
    post_dom = post_dominator_map(func)
    removed = 0
    hot_taken = 0
    for block in list(func.blocks):
        term = block.terminator
        if not isinstance(term, CondBr):
            continue
        if _is_loop_control(block, loop_info):
            continue
        target = None
        if profile is not None:
            target = profile.hot_successor(term, hot_threshold)
            if target is not None:
                hot_taken += 1
        if target is None:
            target = post_dom.get(block)
            if target is None:
                continue  # branch to diverging paths; keep it
        for succ in term.successors():
            if succ is not target:
                for phi in succ.phis():
                    phi.remove_incoming_block(block)
        term.erase_from_parent()
        block.append(Jump(target))
        removed += 1
    return removed, hot_taken


def _is_loop_control(block, loop_info: LoopInfo) -> bool:
    """True when the block's terminator maintains a loop's control flow."""
    loop = loop_info.loop_for(block)
    term = block.terminator
    if term is None:
        return False
    # Headers and exiting blocks keep their conditionals; so do latches.
    for candidate in loop_info.loops:
        if block is candidate.header:
            return True
        if block in candidate.latches:
            return True
        if block in candidate.blocks and any(
            s not in candidate.blocks for s in term.successors()
        ):
            return True
    return False


def _repair_phis(func: Function) -> None:
    """Make phis consistent after conditional removal.

    Incoming entries from blocks that no longer branch here are dropped;
    missing predecessors get Undef (their value was only defined on the
    removed conditional paths, so no prefetch can rely on it — matching
    the paper's "reads not guaranteed to execute are discarded").
    """
    from ...analysis.cfg import remove_unreachable_blocks

    remove_unreachable_blocks(func)
    preds_of = predecessors_map(func)  # phi repair edits no edge
    for block in func.blocks:
        preds = preds_of[block]
        for phi in block.phis():
            for incoming_block in list(phi.incoming_blocks):
                if incoming_block not in preds:
                    phi.remove_incoming_block(incoming_block)
            have = set(id(b) for b in phi.incoming_blocks)
            for pred in preds:
                if id(pred) not in have:
                    phi.add_incoming(Undef(phi.type), pred)
            distinct = {id(v) for v in phi.operands if v is not phi}
            if len(distinct) == 1:
                replacement = next(v for v in phi.operands if v is not phi)
                phi.replace_all_uses_with(replacement)
                phi.erase_from_parent()


def _dedupe_identical_prefetches(func: Function) -> int:
    """One prefetch per address value per block."""
    removed = 0
    for block in func.blocks:
        seen: set[int] = set()
        for inst in list(block.instructions):
            if isinstance(inst, Prefetch):
                key = id(inst.pointer)
                if key in seen:
                    inst.erase_from_parent()
                    removed += 1
                else:
                    seen.add(key)
    return removed


def _dedupe_cache_lines(func: Function, line_bytes: int) -> int:
    """Drop prefetches statically within one line of an earlier prefetch.

    Two prefetch addresses fall in the same line when they share a GEP
    base value and their element indices differ by a constant smaller
    than the line size (e.g. adjacent fields of a record).
    """
    from ...analysis.loops import LoopInfo
    from ...analysis.memory_access import trace_pointer
    from ...analysis.scalar_evolution import ScalarEvolution

    scev = ScalarEvolution(LoopInfo(func))
    removed = 0
    for block in func.blocks:
        kept: list[tuple] = []
        for inst in list(block.instructions):
            if not isinstance(inst, Prefetch):
                continue
            elem = inst.pointer.type.pointee.size_bytes  # type: ignore[attr-defined]
            base, index = trace_pointer(inst.pointer, scev)
            if base is None or index is None:
                kept.append((None, None, None))
                continue
            duplicate = False
            for kbase, kindex, kelem in kept:
                if kbase is not base or kindex is None or kelem != elem:
                    continue
                delta = index - kindex
                value = delta.constant_value
                if value is not None and abs(value) * elem < line_bytes:
                    duplicate = True
                    break
            if duplicate:
                inst.erase_from_parent()
                removed += 1
            else:
                kept.append((base, index, elem))
    return removed
