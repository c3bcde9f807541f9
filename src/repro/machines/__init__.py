"""Pluggable machine descriptions (homogeneous DVFS and big.LITTLE).

Public surface:

* :class:`MachineModel` / :class:`CoreType` / :class:`Transition` with
  the :func:`dvfs` and :func:`migrate` constructors (``model``);
* the registered catalog — ``sandybridge``, ``biglittle``, ``ideal`` —
  resolved via :meth:`MachineModel.from_name` (``catalog``);
* :func:`machine_stream` / :func:`machine_profiles`, the trace-replay
  path for every machine, single-type or heterogeneous, and
  :func:`prune_private_passes`, which bounds its memo (``replay``).

Importing this package registers the catalog.
"""

from .model import (
    CoreType,
    MachineModel,
    Transition,
    dvfs,
    homogeneous_machine,
    migrate,
)
from .catalog import (
    BIGLITTLE_MIGRATION_NS,
    biglittle_machine,
    ideal_machine,
    little_config,
    little_operating_points,
    sandybridge_machine,
)
from .replay import (
    machine_profiles,
    machine_stream,
    prune_private_passes,
)

__all__ = [
    "BIGLITTLE_MIGRATION_NS",
    "CoreType",
    "MachineModel",
    "Transition",
    "biglittle_machine",
    "dvfs",
    "homogeneous_machine",
    "ideal_machine",
    "little_config",
    "little_operating_points",
    "machine_profiles",
    "machine_stream",
    "migrate",
    "prune_private_passes",
    "sandybridge_machine",
]
