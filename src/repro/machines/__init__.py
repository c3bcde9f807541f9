"""Pluggable machine descriptions (homogeneous DVFS and big.LITTLE).

Public surface:

* :class:`MachineModel` / :class:`CoreType` / :class:`Transition` with
  the :func:`dvfs` and :func:`migrate` constructors, and
  :func:`as_machine`, which resolves every layer's one hardware
  argument — a name, a model or a bare config — to a model (``model``);
* the registered catalog — ``sandybridge``, ``biglittle``, ``ideal`` —
  resolved via :meth:`MachineModel.from_name` (``catalog``, which every
  lookup loads: no import order decides what is registered);
* :func:`machine_stream` / :func:`machine_profiles`, the trace-replay
  path for every machine, single-type or heterogeneous, and
  :func:`prune_private_passes`, which bounds its memo (``replay``).
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "model": ("CoreType", "MachineLike", "MachineModel", "Transition",
              "as_machine", "dvfs", "homogeneous_machine", "migrate"),
    "catalog": ("BIGLITTLE_MIGRATION_NS", "biglittle_machine",
                "ideal_machine", "little_config", "little_operating_points",
                "sandybridge_machine"),
    "replay": ("machine_profiles", "machine_stream", "prune_private_passes"),
})
