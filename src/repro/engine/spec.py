"""The typed facade: what to run (:class:`ExperimentSpec`) and what came
back (:class:`EngineResult`).

An :class:`ExperimentSpec` fully describes one profiling matrix —
(workloads x schemes) at one scale on one machine — plus the
execution knobs (process-pool width, cache policy, per-job timeout).
It replaces the ad-hoc ``(scheme: str, policy: str)`` plumbing the
evaluation layer used to thread through every call.

:class:`EngineResult` is a mapping ``workload name ->``
:class:`~repro.engine.products.WorkloadRun` (so every existing consumer
of the old ``run_all`` dict keeps working) plus the run's
:class:`EngineStats` — scheduled/completed/cache-hit counts that the
obs counters mirror.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Tuple, Union

from ..interp.fast import resolve_interp
from ..machines.model import MachineLike, as_machine
from ..transform.access_phase import AccessPhaseOptions
from ..workloads import ALL_WORKLOADS, Workload, workload_by_name
from .products import ALL_SCHEMES, EngineError, Scheme, WorkloadRun

#: Accepted workload specifiers: an instance, a registered name, or a
#: Workload subclass.
WorkloadSpec = Union[Workload, str, type]


@dataclass(frozen=True)
class ExperimentSpec:
    """One profiling matrix and how to execute it.

    ``workloads`` left empty means "all seven paper applications".
    ``jobs=1`` runs serially in-process; ``jobs>1`` fans workloads out
    over a ``ProcessPoolExecutor`` (falling back to serial when the
    platform or the payload cannot support it).  ``cache`` consults and
    fills the persistent profile cache rooted at ``cache_dir``.
    """

    workloads: Tuple[WorkloadSpec, ...] = ()
    schemes: Tuple[Scheme, ...] = ALL_SCHEMES
    scale: int = 1
    #: The machine to profile on: a registered name, a
    #: :class:`~repro.machines.model.MachineModel`, or a bare
    #: :class:`~repro.sim.config.MachineConfig` (``None``: the default
    #: config), resolved once to a model
    #: (:func:`~repro.machines.model.as_machine`).  Every profile
    #: replays its recording on the machine, so on a heterogeneous one
    #: each phase meets its core type's cache geometry.
    #: Result-determining, so it is part of the cache key.
    machine: MachineLike = None
    options: Optional[AccessPhaseOptions] = None
    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[str] = None
    #: Per-job wall-clock budget when running in the pool; a job that
    #: exceeds it is retried once, then computed serially.
    timeout_s: float = 900.0
    #: Interpreter: ``"replay"`` (the fast core with cross-scheme trace
    #: reuse; ``None`` means this default) or ``"reference"``.  Both are
    #: bit-identical, so this knob is *excluded* from the cache key —
    #: cached profiles are valid under either.
    interp: Optional[str] = None

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1, got %r" % (self.scale,))
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, got %r" % (self.jobs,))
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.interp is not None:
            object.__setattr__(self, "interp", resolve_interp(self.interp))
        object.__setattr__(
            self, "schemes", tuple(Scheme(s) for s in self.schemes)
        )
        try:
            object.__setattr__(self, "machine", as_machine(self.machine))
        except (KeyError, TypeError) as exc:
            raise EngineError(str(exc)) from None

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """The valid construction knobs, in declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def _check_kwargs(cls, kwargs: dict) -> None:
        unknown = set(kwargs) - set(cls.field_names())
        if unknown:
            raise EngineError(
                "unknown ExperimentSpec field(s) %s; valid fields: %s"
                % (", ".join(sorted(repr(name) for name in unknown)),
                   ", ".join(cls.field_names()))
            )

    @classmethod
    def from_kwargs(cls, **kwargs) -> "ExperimentSpec":
        """Construct a spec, rejecting unknown knobs loudly.

        Dict-driven construction paths (CLI plumbing, the service wire
        protocol, sweep scripts) should come through here: a typo'd
        knob raises :class:`EngineError` naming the valid fields
        instead of being silently dropped by ``**kwargs`` splatting.
        """
        cls._check_kwargs(kwargs)
        return cls(**kwargs)

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with ``changes`` applied (validation re-runs).

        Unknown field names raise :class:`EngineError` listing the
        valid fields — the ergonomic way to build spec variants::

            base = ExperimentSpec(workloads=("cg",))
            serial = base.replace(jobs=1, cache=False)
        """
        self._check_kwargs(changes)
        return dataclasses.replace(self, **changes)

    def resolve_workloads(self) -> list[Workload]:
        """Instantiate the workload specifiers, in spec order."""
        specs = self.workloads or ALL_WORKLOADS
        resolved: list[Workload] = []
        for spec in specs:
            if isinstance(spec, Workload):
                resolved.append(spec)
            elif isinstance(spec, str):
                resolved.append(workload_by_name(spec))
            elif isinstance(spec, type) and issubclass(spec, Workload):
                resolved.append(spec())
            else:
                raise ValueError("unknown workload specifier %r" % (spec,))
        return resolved


@dataclass
class EngineStats:
    """Execution counters for one :func:`~repro.engine.pool.run_experiment`.

    Mirrored into obs counters (``engine.*``) so traces show the
    fan-out and cache behaviour without touching the result object.
    """

    jobs_scheduled: int = 0    # profiling jobs actually dispatched
    jobs_completed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    parallel_jobs: int = 0     # completed via the process pool
    serial_jobs: int = 0       # completed in-process
    retries: int = 0           # pool jobs retried after timeout/failure
    fallbacks: int = 0         # jobs that fell back from pool to serial
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class EngineResult(Mapping):
    """Mapping ``workload name -> WorkloadRun`` plus run statistics.

    Deterministically ordered by the spec's workload order regardless
    of pool completion order.
    """

    def __init__(self, spec: ExperimentSpec,
                 runs: dict[str, WorkloadRun], stats: EngineStats):
        self.spec = spec
        self.runs = runs
        self.stats = stats

    def __getitem__(self, name: str) -> WorkloadRun:
        return self.runs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __repr__(self) -> str:
        return "EngineResult(workloads=%r, stats=%r)" % (
            list(self.runs), self.stats,
        )
