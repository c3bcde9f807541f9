"""Profile-guided hot-path access versions (Section 5.2.2, last ¶).

"While eliminating conditionals within loops gives a general
improvement, some applications would benefit from the additional or
more precise prefetching of keeping the conditionals.  This is likely
if particular conditional-branches are executed for the majority of the
iterations.  To address such situations, we could detect the hot path
through profiling and create a specifically tailored access version."

:class:`BranchProfile` records per-branch taken fractions; the skeleton
generator consults it and, for a body conditional whose outcome is
sufficiently biased, follows the *hot* successor unconditionally instead
of jumping to the merge point — prefetching the data of the dominant
path rather than only the guaranteed reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ...interp.interpreter import Interpreter
from ...interp.memory import SimMemory
from ...ir import CondBr, Function


@dataclass
class BranchProfile:
    """Taken/total counts per conditional branch (keyed by identity)."""

    counts: dict[int, list] = field(default_factory=dict)

    def record(self, branch: CondBr, taken: bool) -> None:
        entry = self.counts.setdefault(id(branch), [0, 0])
        entry[0] += 1 if taken else 0
        entry[1] += 1

    def taken_fraction(self, branch: CondBr) -> Optional[float]:
        entry = self.counts.get(id(branch))
        if entry is None or entry[1] == 0:
            return None
        return entry[0] / entry[1]

    def hot_successor(self, branch: CondBr, threshold: float):
        """The successor taken at least ``threshold`` of the time, or None."""
        fraction = self.taken_fraction(branch)
        if fraction is None:
            return None
        if fraction >= threshold:
            return branch.if_true
        if 1.0 - fraction >= threshold:
            return branch.if_false
        return None


def profile_branches(func: Function, memory: SimMemory,
                     runs: Iterable[list]) -> BranchProfile:
    """Run ``func`` on training inputs and collect branch statistics."""
    profile = BranchProfile()
    interp = Interpreter(memory, branch_observer=profile.record)
    for args in runs:
        interp.run(func, args)
    return profile


def make_profiler(memory: SimMemory,
                  runs: Iterable[list]) -> Callable[[Function], BranchProfile]:
    """A profiler callback for ``AccessPhaseOptions.profiler``.

    The driver calls it with the prepared (inlined + optimized) task
    clone, so the recorded branch identities match the instructions the
    skeleton generator will inspect.
    """
    run_list = [list(args) for args in runs]

    def profiler(func: Function) -> BranchProfile:
        return profile_branches(func, memory, run_list)

    return profiler
