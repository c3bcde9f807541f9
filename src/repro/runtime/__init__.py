"""DAE task runtime: profiling, scheduling, DVFS policies."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "profiler": ("ProfileError", "StreamProfile", "TaskStreamProfiler"),
    "scheduler": ("DAEScheduler", "ScheduleBuckets", "ScheduleResult"),
    "task": ("Scheme", "TaskInstance", "TaskKind", "TaskProfile"),
})
