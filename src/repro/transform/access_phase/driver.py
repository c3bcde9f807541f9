"""Top-level access-phase driver.

Implements the compile-time flow of Section 5: classify the task
(affine / non-affine) with scalar evolution, then generate the access
version with the polyhedral generator when possible and the optimized
skeleton otherwise.  Tasks with non-inlinable calls get no access
version at all (they fall back to coupled execution at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ...analysis.memory_access import AccessAnalysis
from ...ir import Function, Module
from ...obs.events import get_collector
from ..clone import clone_function
from ..inline import InlineError, inline_all_calls
from ..pipeline import optimize_function
from .affine import AffineGenerationError, AffinePlan, plan_affine_access
from .emit import EmitError, emit_access_function
from .skeleton import SkeletonOptions, SkeletonStats, generate_skeleton


@dataclass
class AccessPhaseOptions:
    """Compile-time knobs for access generation."""

    #: Extra prefetched points tolerated by the hull test (Section 5.1.1's
    #: ``NconvUn - th <= NOrig`` heuristic).
    hull_threshold: int = 0
    #: Merge loop nests with identical extents (Section 5.1.2/3).
    merge_nests: bool = True
    #: Force 'affine' or 'skeleton' (for ablations); None = auto.
    force_method: Optional[str] = None
    skeleton: SkeletonOptions = field(default_factory=SkeletonOptions)
    #: Optional branch profiler for hot-path access versions (Section
    #: 5.2.2): called with the prepared (inlined + optimized) clone and
    #: returning a BranchProfile; see ``hotpath.make_profiler``.
    profiler: Optional[Callable] = None


@dataclass
class AccessPhaseResult:
    """Outcome of access generation for one task."""

    task: Function
    access: Optional[Function]
    method: str  # 'affine' | 'skeleton' | 'none'
    affine_loops: int = 0
    total_loops: int = 0
    reason: str = ""
    plan: Optional[AffinePlan] = None
    skeleton_stats: Optional[SkeletonStats] = None

    @property
    def generated(self) -> bool:
        return self.access is not None


def _emit_decision(collector, result: AccessPhaseResult) -> AccessPhaseResult:
    """Record the per-task outcome (the rows behind Table 1)."""
    if collector.enabled:
        collector.instant(
            "access_phase.decision", cat="compiler.decision",
            args={
                "task": result.task.name,
                "method": result.method,
                "affine_loops": result.affine_loops,
                "total_loops": result.total_loops,
                "reason": result.reason,
            },
        )
    return result


def _emit_loops(collector, task: Function, analysis: AccessAnalysis,
                method: str) -> None:
    """Record every target loop's strategy and any bail reasons."""
    if not collector.enabled:
        return
    for lc in analysis.loop_classes:
        if lc.loop.parent is not None:
            continue
        strategy = method if method != "none" else "none"
        if method == "affine" and not lc.is_affine:
            strategy = "skeleton"  # unreachable today, defensive
        collector.instant(
            "access_phase.loop", cat="compiler.decision",
            args={
                "task": task.name,
                "loop": lc.loop.header.name,
                "affine": lc.is_affine,
                "strategy": strategy,
                "reasons": list(lc.reasons),
            },
        )


def generate_access_phase(task: Function,
                          module: Optional[Module] = None,
                          options: Optional[AccessPhaseOptions] = None,
                          name: Optional[str] = None) -> AccessPhaseResult:
    """Generate the access version of ``task``.

    The original task is left untouched (it is the execute version); all
    work happens on a private clone.  When ``module`` is given the
    resulting access function is added to it.
    """
    options = options or AccessPhaseOptions()
    access_name = name or task.name + "_access"
    collector = get_collector()

    with collector.span("access_phase.generate", cat="compiler.access",
                        args={"task": task.name}) as span:
        result = _generate(task, module, options, access_name, collector)
        span.args["method"] = result.method
    return _emit_decision(collector, result)


def _generate(task: Function, module: Optional[Module],
              options: AccessPhaseOptions, access_name: str,
              collector) -> AccessPhaseResult:
    work = clone_function(task, access_name)
    try:
        inline_all_calls(work)
    except InlineError as exc:
        return AccessPhaseResult(
            task=task, access=None, method="none",
            reason="non-inlinable call: %s" % exc,
        )
    optimize_function(work)

    analysis = AccessAnalysis(work)
    affine_loops = len(analysis.affine_target_loops())
    total_loops = len(analysis.target_loops())

    want_affine = (
        options.force_method in (None, "affine")
        and analysis.is_affine_task()
    )
    if options.force_method == "affine" and not analysis.is_affine_task():
        _emit_loops(collector, task, analysis, "none")
        return AccessPhaseResult(
            task=task, access=None, method="none",
            affine_loops=affine_loops, total_loops=total_loops,
            reason="affine method forced but task is not affine",
        )

    if want_affine:
        try:
            plan = plan_affine_access(
                analysis,
                hull_threshold=options.hull_threshold,
                merge_nests=options.merge_nests,
            )
            access = emit_access_function(
                work, plan, module=None, name=access_name
            )
            if module is not None:
                module.add_function(access)
            _emit_loops(collector, task, analysis, "affine")
            return AccessPhaseResult(
                task=task, access=access, method="affine",
                affine_loops=affine_loops, total_loops=total_loops,
                plan=plan,
            )
        except (AffineGenerationError, EmitError) as exc:
            if collector.enabled:
                collector.instant(
                    "access_phase.affine_bail", cat="compiler.decision",
                    args={"task": task.name, "reason": str(exc)},
                )
            if options.force_method == "affine":
                _emit_loops(collector, task, analysis, "none")
                return AccessPhaseResult(
                    task=task, access=None, method="none",
                    affine_loops=affine_loops, total_loops=total_loops,
                    reason=str(exc),
                )
            # Fall through to the skeleton path.

    skeleton_options = options.skeleton
    if options.profiler is not None:
        skeleton_options = replace(
            skeleton_options, hot_path_profile=options.profiler(work)
        )
    # Nothing has edited ``work`` since it was analysed (the affine
    # attempt and the branch profiler only read it).
    stats = generate_skeleton(work, analysis, skeleton_options)
    optimize_function(work)
    if module is not None:
        module.add_function(work)
    _emit_loops(collector, task, analysis, "skeleton")
    return AccessPhaseResult(
        task=task, access=work, method="skeleton",
        affine_loops=affine_loops, total_loops=total_loops,
        skeleton_stats=stats,
    )


def generate_module_access_phases(module: Module,
                                  options: Optional[AccessPhaseOptions] = None
                                  ) -> dict[str, AccessPhaseResult]:
    """Run access generation for every task in a module."""
    results = {}
    for task in list(module.tasks()):
        if task.name.endswith("_access"):
            continue
        results[task.name] = generate_access_phase(
            task, module=module, options=options
        )
    return results
