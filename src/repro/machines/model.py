"""Machine descriptions: typed core clusters and phase transitions.

The paper's runtime maps *access @ f_low -> execute @ f_high* on one
homogeneous DVFS multicore.  The direct follow-up (Weber, Tran,
Jimborean, Kaxiras — DAE on ARM big.LITTLE) shows the same phase split
maps onto heterogeneous core *types*: access phases on LITTLE cores,
execute phases on big cores, with a thread migration replacing the
DVFS switch.  A :class:`MachineModel` describes either shape:

* one or more :class:`CoreType` clusters, each with its own operating
  points, power coefficients and cache geometry (a full
  :class:`~repro.sim.config.MachineConfig` per type);
* a phase-:class:`Transition` mechanism — :func:`dvfs` for switching
  the running core's frequency (today's behaviour, bit-for-bit) or
  :func:`migrate` for moving the task's next phase to a core of
  another type, optionally cold-starting its private caches;
* a placement — which type runs access phases and which runs execute
  phases under decoupled schemes (coupled schemes pin to the execute
  type).

The homogeneous multicore is the one-type case:
:func:`homogeneous_machine` wraps a bare
:class:`~repro.sim.config.MachineConfig`.  Every layer takes one
hardware argument and resolves it with :func:`as_machine`, so the
spec, the profiler, the scheduler and the tuner take every machine
down one path.

The scheduler models a machine as *slots* in the style of big.LITTLE's
in-kernel switcher: a slot pairs one core of each placed type, a
task's phases hop between the pair, and the inactive sibling is
power-gated (it burns nothing and keeps no clock).  Placed types that
are *behaviourally identical* (equal configs) collapse to one type, so
such a machine schedules exactly like the single-type machine — the
``machine-invariance`` fuzz oracle pins that collapse bit-for-bit.

Models are named and registered, mirroring
:meth:`repro.power.frequency.FrequencyPolicy.register`, so CLI verbs
and specs can say ``--machines sandybridge,biglittle,ideal``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Union

from ..sim.config import MachineConfig, MachineConfigError

#: Transition kinds a machine may declare.
TRANSITION_KINDS = ("dvfs", "migrate")


@dataclass(frozen=True)
class Transition:
    """How a machine moves a task between phase operating points.

    ``dvfs``: the core re-clocks in place; ``latency_ns`` is the ramp
    (and must match every core type's ``dvfs_transition_ns`` so the
    scheduler and the per-type configs cannot disagree).

    ``migrate``: the next phase runs on a core of another type;
    ``latency_ns`` is the thread-migration cost and ``flush`` says
    whether the destination's private caches cold-start.
    """

    kind: str
    latency_ns: float
    flush: bool = False


def dvfs(latency_ns: float) -> Transition:
    """A frequency-switch transition (homogeneous machines)."""
    return Transition(kind="dvfs", latency_ns=latency_ns)


def migrate(latency_ns: float, flush: bool = True) -> Transition:
    """A thread-migration transition (heterogeneous machines)."""
    return Transition(kind="migrate", latency_ns=latency_ns, flush=flush)


@dataclass(frozen=True)
class CoreType:
    """One cluster of identical cores.

    ``config`` carries the type's operating-point table, power-model
    coefficients and cache geometry; ``count`` is the cluster size
    (``config.cores`` must agree so profiling and scheduling see the
    same width).
    """

    name: str
    count: int
    config: MachineConfig


#: name -> zero-argument factory for :meth:`MachineModel.from_name`.
_MACHINE_REGISTRY: dict[str, Callable[[], "MachineModel"]] = {}


def _registry() -> dict:
    """:data:`_MACHINE_REGISTRY` with the shipped catalog registered,
    whatever the process imported before asking."""
    importlib.import_module(".catalog", __package__)
    return _MACHINE_REGISTRY


@dataclass(frozen=True)
class MachineModel:
    """A named machine: typed core clusters plus a transition."""

    name: str
    description: str
    core_types: tuple[CoreType, ...]
    transition: Transition
    #: Core-type names phases are placed on under decoupled schemes;
    #: coupled schemes pin both phases to ``execute_type``.
    access_type: str = ""
    execute_type: str = ""

    def __post_init__(self) -> None:
        if len(self.core_types) == 1 and not self.access_type:
            only = self.core_types[0].name
            object.__setattr__(self, "access_type", only)
            object.__setattr__(self, "execute_type", only)

    # -- shape -----------------------------------------------------------------

    @property
    def heterogeneous(self) -> bool:
        """True when the placed types differ *behaviourally*.

        Two types with equal configs are indistinguishable to the
        timing, cache and power models, so a machine built from them
        collapses to one type (and the ``machine-invariance`` oracle
        holds by construction).
        """
        access = self.type_named(self.access_type)
        execute = self.type_named(self.execute_type)
        return access.config != execute.config

    @property
    def config(self) -> MachineConfig:
        """The scheduling-default config: the execute type's."""
        return self.type_named(self.execute_type).config

    def type_named(self, name: str) -> CoreType:
        for core_type in self.core_types:
            if core_type.name == name:
                return core_type
        raise KeyError(
            "machine %r has no core type %r (types: %s)"
            % (self.name, name,
               ", ".join(t.name for t in self.core_types))
        )

    def placement(self, scheme: str,
                  override: tuple[str, str] | None = None,
                  ) -> tuple[CoreType, CoreType]:
        """(access type, execute type) for ``scheme``.

        Decoupled schemes (``dae``/``manual``) split phases across the
        declared (or ``override``) placement; coupled schemes pin both
        phases to the execute type.
        """
        access_name, execute_name = override or (
            self.access_type, self.execute_type
        )
        execute = self.type_named(execute_name)
        if str(scheme) in ("dae", "manual"):
            return self.type_named(access_name), execute
        return execute, execute

    def slots(self, scheme: str,
              override: tuple[str, str] | None = None) -> int:
        """Logical scheduling slots for ``scheme``.

        A slot pairs one core of each placed type (the in-kernel
        switcher model), so the machine offers as many slots as its
        *smallest* placed cluster; unused clusters are power-gated.
        """
        access, execute = self.placement(scheme, override)
        if access.name == execute.name:
            return execute.count
        return min(access.count, execute.count)

    # -- validation ------------------------------------------------------------

    def validate(self) -> "MachineModel":
        """Check the description; raise :class:`MachineConfigError`.

        Returns ``self`` so factories can end with
        ``return MachineModel(...).validate()``.
        """
        if not self.core_types:
            raise MachineConfigError(
                "machine %r declares no core types" % self.name
            )
        seen: set[str] = set()
        for core_type in self.core_types:
            if core_type.name in seen:
                raise MachineConfigError(
                    "machine %r declares core type %r twice"
                    % (self.name, core_type.name)
                )
            seen.add(core_type.name)
            if core_type.count < 1:
                raise MachineConfigError(
                    "core type %r of machine %r needs count >= 1, got %d"
                    % (core_type.name, self.name, core_type.count)
                )
            core_type.config.validate()
            if core_type.config.cores != core_type.count:
                raise MachineConfigError(
                    "core type %r of machine %r: config.cores (%d) must "
                    "equal the cluster count (%d)"
                    % (core_type.name, self.name,
                       core_type.config.cores, core_type.count)
                )
        for role, name in (("access", self.access_type),
                           ("execute", self.execute_type)):
            if name not in seen:
                raise MachineConfigError(
                    "machine %r places %s phases on unknown core type %r"
                    % (self.name, role, name)
                )
        if self.transition.kind not in TRANSITION_KINDS:
            raise MachineConfigError(
                "machine %r has unknown transition kind %r (expected %s)"
                % (self.name, self.transition.kind,
                   " or ".join(TRANSITION_KINDS))
            )
        if self.transition.latency_ns < 0:
            raise MachineConfigError(
                "machine %r transition latency must be >= 0, got %g"
                % (self.name, self.transition.latency_ns)
            )
        if self.transition.kind == "dvfs":
            if len({t.config for t in self.core_types}) > 1:
                raise MachineConfigError(
                    "machine %r uses dvfs transitions but declares "
                    "behaviourally distinct core types; heterogeneous "
                    "machines must migrate" % self.name
                )
            for core_type in self.core_types:
                if core_type.config.dvfs_transition_ns != (
                        self.transition.latency_ns):
                    raise MachineConfigError(
                        "machine %r: dvfs latency %g ns disagrees with "
                        "core type %r's dvfs_transition_ns %g ns"
                        % (self.name, self.transition.latency_ns,
                           core_type.name,
                           core_type.config.dvfs_transition_ns)
                    )
        else:
            access, execute = (self.type_named(self.access_type),
                               self.type_named(self.execute_type))
            if access.config.llc != execute.config.llc:
                raise MachineConfigError(
                    "machine %r: placed core types must share one LLC "
                    "geometry (access %r vs execute %r differ)"
                    % (self.name, self.access_type, self.execute_type)
                )
        return self

    # -- registry --------------------------------------------------------------

    @staticmethod
    def register(name: str,
                 factory: Callable[[], "MachineModel"]) -> None:
        """Register ``factory`` under ``name`` for :meth:`from_name`.

        Re-registering a name overwrites it (experiments ablate a
        machine without touching call sites), mirroring
        :meth:`~repro.power.frequency.FrequencyPolicy.register`.
        """
        _MACHINE_REGISTRY[name.lower()] = factory

    @classmethod
    def from_name(cls, name: str) -> "MachineModel":
        """Build a registered machine by name.

        Built-in names: ``sandybridge`` (the homogeneous default),
        ``biglittle`` (4 big + 4 LITTLE, migration-based DAE) and
        ``ideal`` (zero-latency transition oracle).
        """
        factory = _registry().get(name.lower())
        if factory is None:
            raise KeyError(
                "unknown machine %r; registered: %s"
                % (name, ", ".join(sorted(_MACHINE_REGISTRY)))
            )
        return factory()

    @staticmethod
    def registered_names() -> tuple:
        return tuple(sorted(_registry()))


#: What a hardware argument may be: a registered machine name, a
#: :class:`MachineModel`, or a bare :class:`MachineConfig` (``None``:
#: the default config).
MachineLike = Union[str, MachineModel, MachineConfig, None]


def as_machine(machine: MachineLike = None) -> MachineModel:
    """The :class:`MachineModel` a hardware argument names.

    A model passes through and a name is looked up in the registry
    (``KeyError`` lists the registered names).  A bare config, or the
    default one for ``None``, becomes its single-type machine named
    ``"homogeneous"``, with no registry lookup.
    """
    if isinstance(machine, MachineModel):
        return machine
    if isinstance(machine, str):
        return MachineModel.from_name(machine)
    if machine is None:
        machine = MachineConfig()
    elif not isinstance(machine, MachineConfig):
        raise TypeError(
            "a machine is a registered name, a MachineModel or a "
            "MachineConfig, not %r" % (machine,)
        )
    return homogeneous_machine("homogeneous", machine)


def homogeneous_machine(name: str, config: MachineConfig,
                        description: str = "") -> MachineModel:
    """Wrap one :class:`MachineConfig` as a single-type machine.

    This is what a bare config becomes wherever a machine is expected
    (:func:`as_machine`, each ``ablate`` variant).  ``validate()`` runs
    on the way, so an inconsistent config fails here rather than
    mid-simulation.
    """
    core = CoreType(name="core", count=config.cores, config=config)
    return MachineModel(
        name=name,
        description=description or ("homogeneous %d-core" % config.cores),
        core_types=(core,),
        transition=dvfs(config.dvfs_transition_ns),
    ).validate()
