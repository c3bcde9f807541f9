"""Task abstraction of the DAE runtime (Section 3.1).

A task is a well-defined piece of work over a small working set.  At
runtime each task has up to two versions: the access version (prefetch)
and the execute version (the original computation).  ``TaskInstance``
binds a task to concrete argument values (array base addresses, sizes,
tile offsets).

:class:`Scheme` names the three execution schemes every layer above
(profiler, scheduler, engine, evaluation) agrees on:

* ``CAE``    — each task runs only its execute version (coupled);
* ``DAE``    — compiler-generated access version first, execute
  immediately after on the same core (warm caches);
* ``MANUAL`` — like ``DAE`` but with the hand-written access version.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from ..ir import Function
from ..sim.timing import PhaseProfile


class Scheme(str, enum.Enum):
    """Execution scheme: coupled, compiler DAE, or manual DAE.

    A ``str`` subclass, so members compare and hash equal to their
    lowercase names (``Scheme.DAE == "dae"``) and can index dicts keyed
    by legacy strings.  Code that persists or renders a scheme should
    use ``.value`` to get the plain string.
    """

    CAE = "cae"
    DAE = "dae"
    MANUAL = "manual"

    @classmethod
    def _missing_(cls, value):
        """``Scheme(value)`` also accepts values in any case; anything
        else raises :class:`ValueError` listing the valid values."""
        if isinstance(value, str):
            for member in cls:
                if member.value == value.lower():
                    return member
        raise ValueError(
            "unknown scheme %r; expected one of %s"
            % (value, ", ".join(repr(s.value) for s in cls))
        )


@dataclass
class TaskKind:
    """A compiled task: execute version plus optional access versions."""

    name: str
    execute: Function
    access: Optional[Function] = None          # compiler-generated
    manual_access: Optional[Function] = None   # hand-written (Manual DAE)
    method: str = "none"  # how `access` was generated: affine/skeleton/none


@dataclass
class TaskInstance:
    """One dynamic task: a kind plus its runtime arguments."""

    kind: TaskKind
    args: list

    @property
    def name(self) -> str:
        return self.kind.name


@dataclass(frozen=True)
class TaskRef:
    """Name-only stand-in for a :class:`TaskInstance`.

    Profiles that round-trip through the evaluation engine's process
    pool or on-disk cache drop the heavyweight IR-bearing instance and
    keep only what the scheduler consumes: the task name.
    """

    name: str


@dataclass
class TaskProfile:
    """Measured phase profiles of one dynamic task.

    ``instance`` is either the full :class:`TaskInstance` (fresh
    profiling runs) or a :class:`TaskRef` (engine cache / pool
    round-trips); both expose ``.name``.
    """

    instance: Union[TaskInstance, TaskRef]
    execute: PhaseProfile
    access: Optional[PhaseProfile] = None

    @property
    def has_access(self) -> bool:
        return self.access is not None


@dataclass
class StreamProfile:
    """Profiles of a whole task stream under one scheme."""

    scheme: str
    tasks: list[TaskProfile] = field(default_factory=list)
    #: Accesses served by the per-core MRU same-line filter (a replay
    #: diagnostic, not part of the engine's persisted payload).
    mru_shortcircuits: int = 0

    def aggregate_execute(self) -> PhaseProfile:
        total = PhaseProfile()
        for task in self.tasks:
            total = total.merged(task.execute)
        return total

    def aggregate_access(self) -> PhaseProfile:
        total = PhaseProfile()
        for task in self.tasks:
            if task.access is not None:
                total = total.merged(task.access)
        return total
