"""Hardware model: caches, core timing and machine configuration."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cache": ("LEVELS", "AccessCounts", "Cache", "CoreCaches",
              "MachineCaches"),
    "config": ("DEFAULT_CONFIG", "CacheConfig", "MachineConfig",
               "OperatingPoint", "sandybridge_operating_points"),
    "replay": ("replay_phase",),
    "timing": ("SLOT_COSTS", "PhaseProfile", "issue_slots"),
})
