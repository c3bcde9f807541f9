"""DVFS-aware multicore task scheduler with work stealing (Section 3.1).

"While the programmer is responsible for selecting the task granularity,
the runtime handles task scheduling, running the access phase before the
execute phase, load balancing through work stealing and power saving
using sleep states and DVFS between each task phase."

The scheduler replays profiled tasks on a discrete-time model of a
:class:`~repro.machines.model.MachineModel` (a bare config is the
single-type machine): each core consumes its own deque, steals from
the fullest victim when empty, switches frequency between phases
according to the active policy (paying the transition latency with
static-only energy) or, on a heterogeneous placement, migrates a phase
to the other core type, and sleeps when no work is left.  The output
is the total time/energy plus the Prefetch / Task / O.S.I. buckets of
Figure 4.

When the observability collector is enabled (or ``run`` is called with
``record_timeline=True``) every clock advance is also recorded on a
per-core :class:`~repro.obs.timeline.Timeline` — access / execute /
switch / steal / overhead / idle segments with operating points — whose
per-core durations sum exactly to the schedule's total time.  Disabled,
the per-task cost is a couple of ``None`` checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs.events import get_collector
from ..obs.timeline import Timeline
from ..power.frequency import FrequencyPolicy
from ..power.model import (
    EnergyBreakdown,
    migration_energy,
    phase_energy_at,
    static_energy,
    static_power,
    transition_energy,
)
from ..machines.model import CoreType, MachineLike, as_machine
from ..sim.config import OperatingPoint
from .task import Scheme, TaskProfile


@dataclass
class ScheduleBuckets:
    """Figure 4's stacked components: Prefetch, Task, and O.S.I."""

    prefetch_ns: float = 0.0   # access phases
    task_ns: float = 0.0       # execute phases
    osi_ns: float = 0.0        # overhead + sequential + idle
    prefetch_nj: float = 0.0
    task_nj: float = 0.0
    osi_nj: float = 0.0


@dataclass
class ScheduleResult:
    """Outcome of one scheduled run."""

    scheme: str
    policy: str
    time_ns: float = 0.0
    energy_nj: float = 0.0
    buckets: ScheduleBuckets = field(default_factory=ScheduleBuckets)
    transitions: int = 0
    #: Static energy burned in DVFS ramps.  Charged inside the O.S.I.
    #: bucket (as always) but tracked explicitly so summaries and
    #: explain reports can show the transition component instead of
    #: folding it invisibly into the totals.
    transition_nj: float = 0.0
    steals: int = 0
    tasks_run: int = 0
    #: Per-core activity timeline; only recorded when observability is
    #: on (or the caller forces ``record_timeline=True``).
    timeline: Optional[Timeline] = None
    #: Heterogeneous-machine annotations.  ``machine`` is the model
    #: name, ``migrations`` counts cross-cluster phase moves (energy in
    #: ``transition_nj``), ``placement`` maps phase role -> core-type
    #: name.  All stay at their defaults on homogeneous runs so
    #: ``summary()`` remains byte-identical to the pre-machines output.
    machine: Optional[str] = None
    migrations: int = 0
    placement: Optional[dict] = None

    @property
    def energy_j(self) -> float:
        return self.energy_nj * 1e-9

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    @property
    def edp_js(self) -> float:
        return self.energy_j * self.time_s

    def summary(self) -> dict:
        """SI-unit summary shared by the evaluation reports and the
        trace exporter (one source for time/energy/EDP arithmetic)."""
        buckets = self.buckets
        out = {
            "scheme": self.scheme,
            "policy": self.policy,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "edp_js": self.edp_js,
            "tasks_run": self.tasks_run,
            "steals": self.steals,
            "transitions": self.transitions,
            "transition_j": self.transition_nj * 1e-9,
            "buckets": {
                "prefetch_s": buckets.prefetch_ns * 1e-9,
                "task_s": buckets.task_ns * 1e-9,
                "osi_s": buckets.osi_ns * 1e-9,
                "prefetch_j": buckets.prefetch_nj * 1e-9,
                "task_j": buckets.task_nj * 1e-9,
                "osi_j": buckets.osi_nj * 1e-9,
            },
        }
        if self.machine is not None:
            out["machine"] = self.machine
            out["migrations"] = self.migrations
            out["placement"] = dict(self.placement or {})
        return out


@dataclass
class _CoreState:
    """One scheduling slot.

    A slot pairs one core of each placed type (the in-kernel switcher
    arrangement): ``core_type`` names the cluster the task currently
    occupies (``None`` until its first phase) and the inactive sibling
    is power-gated.  On a single-type placement the slot is simply
    the core.
    """

    index: int = 0
    clock_ns: float = 0.0
    point: Optional[OperatingPoint] = None
    queue: deque = field(default_factory=deque)
    core_type: Optional[CoreType] = None


class _OnTable(FrequencyPolicy):
    """Projects a policy's points onto the target type's table.

    Heterogeneous placements only: a policy may pick a point off the
    table of the type a phase lands on (a big-core frequency for a
    LITTLE phase), so each pick snaps with ``point_for(clamp=True)``.
    Single-type runs use the policy's points as given.
    """

    def __init__(self, policy: FrequencyPolicy):
        self.policy = policy

    def access_point(self, profile, config):
        point = self.policy.access_point(profile, config)
        return config.point_for(point.freq_ghz, clamp=True)

    def execute_point(self, profile, config):
        point = self.policy.execute_point(profile, config)
        return config.point_for(point.freq_ghz, clamp=True)


class DAEScheduler:
    """Replays task profiles under a scheme and frequency policy."""

    #: Runtime dispatch overhead per task (queue pop, bookkeeping).
    task_overhead_ns: float = 40.0
    #: Extra overhead of a successful steal.
    steal_overhead_ns: float = 120.0
    #: Power of a sleeping core (deep C-state).
    sleep_power_w: float = 0.15

    def __init__(self, machine: MachineLike = None):
        """Schedule on ``machine``, resolved by
        :func:`~repro.machines.model.as_machine`: a registered name, a
        :class:`~repro.machines.model.MachineModel`, or a bare
        :class:`~repro.sim.config.MachineConfig`'s single-type machine
        (``None``: the default config's).
        """
        self.machine = as_machine(machine)
        #: (access CoreType, execute CoreType) of the run in flight.
        self._run_placement = None

    def run(self, profiles: list[TaskProfile],
            scheme: Union[Scheme, str],
            policy: FrequencyPolicy,
            record_timeline: Optional[bool] = None) -> ScheduleResult:
        """Schedule ``profiles`` under ``scheme`` (a :class:`Scheme`
        or its value).

        For DAE, tasks without an access profile fall back to coupled
        execution (the compiler generated no access version).

        ``record_timeline`` defaults to whether the observability
        collector is enabled.

        Both selection loops break ties by core index: the
        lowest-indexed core among those sharing the minimum clock runs
        next, and the lowest-indexed among the fullest queues is the
        steal victim.  This pins what ``min``/``max`` previously
        guaranteed only implicitly (first match in list order), so the
        schedule is deterministic by contract, not by accident.

        Core types compare by identity: the machine's
        :meth:`~repro.machines.model.MachineModel.placement` returns
        the execute type twice when the placed types have equal
        configs, and the run is then a plain DVFS schedule.
        """
        scheme = Scheme(scheme).value
        collector = get_collector()
        if record_timeline is None:
            record_timeline = collector.enabled
        access_type, execute_type = self.machine.placement(scheme)
        self._run_placement = (access_type, execute_type)
        width = self.machine.slots(scheme)
        cores = [_CoreState(index=i) for i in range(width)]
        for i, profile in enumerate(profiles):
            cores[i % width].queue.append(profile)

        result = ScheduleResult(scheme=scheme, policy=policy.name)
        if access_type is not execute_type:
            result.machine = self.machine.name
            result.placement = {
                "access": access_type.name,
                "execute": execute_type.name,
            }
            policy = _OnTable(policy)
        timeline = Timeline(scheme=scheme, policy=result.policy) if (
            record_timeline
        ) else None
        result.timeline = timeline
        buckets = result.buckets

        # Run cores in lockstep-ish order: always advance the core with
        # the smallest clock so stealing sees a consistent global state.
        # A successful thief runs the stolen task immediately (otherwise
        # near-equal clocks let idle cores re-steal it forever).
        while True:
            core = min(cores, key=lambda c: (c.clock_ns, c.index))
            if not core.queue:
                victim = max(cores, key=lambda c: (len(c.queue), -c.index))
                if not victim.queue:
                    break
                core.queue.append(victim.queue.pop())
                start = core.clock_ns
                core.clock_ns += self.steal_overhead_ns
                if timeline is not None:
                    # Steals are queue bookkeeping: they consume time
                    # but are charged no energy (zero breakdown).
                    timeline.add(
                        core.index, "steal", start, core.clock_ns,
                        energy=EnergyBreakdown(
                            time_ns=self.steal_overhead_ns
                        ),
                    )
                result.steals += 1
            profile = core.queue.popleft()
            self._run_task(core, profile, scheme, policy, result, timeline)
            result.tasks_run += 1

        result.time_ns = max(c.clock_ns for c in cores) if cores else 0.0
        # Idle tails: cores that finished early sleep until the end.
        for core in cores:
            idle = result.time_ns - core.clock_ns
            if idle > 0:
                breakdown = static_energy(idle, self.sleep_power_w)
                buckets.osi_ns += idle
                buckets.osi_nj += breakdown.energy_nj
                if timeline is not None:
                    timeline.add(
                        core.index, "idle", core.clock_ns, result.time_ns,
                        energy=breakdown,
                    )
        result.energy_nj = (
            buckets.prefetch_nj + buckets.task_nj + buckets.osi_nj
        )
        if collector.enabled:
            collector.instant(
                "scheduler.run", cat="runtime.scheduler",
                args=result.summary(),
            )
        return result

    # -- internals -------------------------------------------------------------

    def _run_task(self, core: _CoreState, profile: TaskProfile, scheme: str,
                  policy: FrequencyPolicy, result: ScheduleResult,
                  timeline: Optional[Timeline]) -> None:
        """One task on one slot: dispatch overhead, then the access
        phase on the access type and the execute phase on the execute
        type, each under that type's config (table, power
        coefficients, timing knobs)."""
        access_type, execute_type = self._run_placement
        buckets = result.buckets
        task_name = profile.name

        # Dispatch overhead runs wherever the slot currently resides
        # (the execute type when cold), at its current point (or fmin).
        resident = core.core_type or execute_type
        overhead_point = core.point or resident.config.fmin
        overhead = static_energy(
            self.task_overhead_ns,
            static_power(overhead_point, 1, resident.config),
        )
        start = core.clock_ns
        core.clock_ns += self.task_overhead_ns
        if timeline is not None:
            timeline.add(
                core.index, "overhead", start, core.clock_ns,
                task=task_name, freq_ghz=overhead_point.freq_ghz,
                energy=overhead,
            )
        buckets.osi_ns += self.task_overhead_ns
        buckets.osi_nj += overhead.energy_nj

        run_access = scheme in ("dae", "manual") and profile.access is not None
        access_time = 0.0
        if run_access:
            target = access_type
            config = target.config
            access_point = policy.access_point(profile.access, config)
            terms = profile.access.terms(config)
            predicted = terms.time_ns(access_point)
            migrating = (
                core.core_type is not None and core.core_type is not target
            )
            if migrating and predicted < self.machine.transition.latency_ns:
                # Break-even guard, migration flavour: moving clusters
                # for a phase shorter than the migration itself can
                # never pay off; run the access phase where the slot
                # already resides.
                target = core.core_type
                config = target.config
                access_point = policy.access_point(profile.access, config)
                terms = profile.access.terms(config)
            elif not migrating and predicted < config.dvfs_transition_ns:
                # DVFS flavour: downclocking for a phase shorter than
                # the ramp itself can never pay off; stay where the
                # core is (or, for a cold core, go straight to the
                # execute point).
                if core.point is not None:
                    access_point = core.point
                else:
                    access_point = policy.execute_point(
                        profile.execute, config
                    )
            # The ramp into a (DRAM-bound) access phase overlaps the
            # phase's own memory time when the hardware keeps clocking
            # during the transition.
            self._place(core, target, access_point, result, timeline,
                        hide_ns=terms.prefetch_ns + terms.demand_ns)
            breakdown = phase_energy_at(terms, access_point)
            time = breakdown.time_ns
            start = core.clock_ns
            core.clock_ns += time
            if timeline is not None:
                timeline.add(
                    core.index, "access", start, core.clock_ns,
                    task=task_name, freq_ghz=access_point.freq_ghz,
                    energy=breakdown,
                )
            access_time = time
            buckets.prefetch_ns += time
            buckets.prefetch_nj += breakdown.energy_nj

        config = execute_type.config
        execute_point = policy.execute_point(profile.execute, config)
        # The ramp back up hides behind the tail of the access phase
        # (prefetches still in flight when the switch is requested).
        self._place(core, execute_type, execute_point, result, timeline,
                    hide_ns=access_time)
        breakdown = phase_energy_at(profile.execute.terms(config),
                                    execute_point)
        time = breakdown.time_ns
        start = core.clock_ns
        core.clock_ns += time
        if timeline is not None:
            timeline.add(
                core.index, "execute", start, core.clock_ns,
                task=task_name, freq_ghz=execute_point.freq_ghz,
                energy=breakdown,
            )
        buckets.task_ns += time
        buckets.task_nj += breakdown.energy_nj

    def _place(self, core: _CoreState, target: CoreType,
               point: OperatingPoint, result: ScheduleResult,
               timeline: Optional[Timeline],
               hide_ns: float = 0.0) -> None:
        """Move the slot to ``target`` at ``point``.

        Cold slots start free.  Another type costs one thread
        migration — charged as a ``switch`` segment whose latency is
        never hidden (architectural state moves serially) and whose
        static-only energy lands in ``transition_nj``; the destination
        comes up already at the requested point, any ramp overlapping
        the migration.  The same type is the ordinary DVFS switch
        under its config.
        """
        if core.core_type is None:
            core.core_type = target
            core.point = point
            return
        if core.core_type is not target:
            breakdown = migration_energy(
                self.machine.transition.latency_ns, point, target.config
            )
            start = core.clock_ns
            core.clock_ns += breakdown.time_ns
            if timeline is not None:
                timeline.add(
                    core.index, "switch", start, core.clock_ns,
                    freq_ghz=point.freq_ghz, energy=breakdown,
                )
            result.buckets.osi_ns += breakdown.time_ns
            result.buckets.osi_nj += breakdown.energy_nj
            result.transition_nj += breakdown.energy_nj
            result.migrations += 1
            core.core_type = target
            core.point = point
            return
        if core.point is point:
            return
        if core.point.freq_ghz == point.freq_ghz:
            core.point = point
            return
        config = target.config
        if config.dvfs_transition_ns > 0:
            breakdown = transition_energy(config, point)
            visible_ns = breakdown.time_ns
            if config.dvfs_overlap:
                visible_ns = max(0.0, visible_ns - hide_ns)
            start = core.clock_ns
            core.clock_ns += visible_ns
            if timeline is not None:
                # A fully-hidden switch (visible_ns == 0) still burns
                # its ramp energy, so it is recorded as a zero-duration
                # segment: the coverage invariant is unaffected and the
                # energy roll-up stays exact.
                timeline.add(
                    core.index, "switch", start, core.clock_ns,
                    freq_ghz=point.freq_ghz, energy=breakdown,
                )
            result.buckets.osi_ns += visible_ns
            # Static transition energy is charged in full: the regulator
            # ramps regardless of whether the core hid the latency.
            result.buckets.osi_nj += breakdown.energy_nj
            result.transition_nj += breakdown.energy_nj
            result.transitions += 1
        core.point = point
