"""The disabled-observability fast path must stay truly free.

Profiling a phase interprets it into a flat event list and counts the
list with the replay kernel; the profiler then emits its per-phase obs
counters only when the collector is enabled.  With the collector
disabled, a profile must make zero collector calls and zero
allocations inside the obs modules — guarded here with a counting probe
and with tracemalloc filtered to ``obs/events.py`` + ``obs/metrics.py``.
The ``sink_path`` test names date from the per-event streaming sink
that the flat event list replaced; the guarantee is the same.
"""

import tracemalloc

from repro.obs import events as events_module
from repro.obs import metrics as metrics_module
from repro.obs.events import Collector, set_collector
from repro.runtime.profiler import TaskStreamProfiler
from repro.runtime.task import Scheme
from repro.sim.config import MachineConfig

from ..engine.tinywork import TinyWorkload


class _ProbeCollector(Collector):
    """Disabled collector that counts emission-path entries."""

    def __init__(self):
        super().__init__(enabled=False)
        self.calls = 0

    def span(self, name, cat="", args=None):
        self.calls += 1
        return super().span(name, cat, args)

    def instant(self, name, cat="", args=None):
        self.calls += 1
        super().instant(name, cat, args)

    def counter(self, name, value, cat="", args=None):
        self.calls += 1
        super().counter(name, value, cat, args)


def _profile_once(workload, config):
    compiled = workload.compile()
    memory, tasks, _ = workload.instantiate(scale=1, compiled=compiled)
    profiler = TaskStreamProfiler(memory, config)
    return profiler.profile(tasks, Scheme.CAE)


class TestDisabledCollectorPath:
    def test_sink_path_makes_no_collector_calls(self):
        # Compile outside the probe window: the pass pipeline calls
        # collector.span() unguarded by design (it returns a shared
        # null span).  The guarantee under test is the *profiling* hot
        # path: zero collector method calls while disabled.
        workload = TinyWorkload()
        compiled = workload.compile()
        memory, tasks, _ = workload.instantiate(scale=1, compiled=compiled)
        probe = _ProbeCollector()
        saved = set_collector(probe)
        try:
            profiler = TaskStreamProfiler(memory, MachineConfig())
            profile = profiler.profile(tasks, Scheme.CAE)
        finally:
            set_collector(saved)
        assert profile.tasks
        assert probe.calls == 0

    def test_sink_path_allocates_nothing_in_obs(self):
        workload = TinyWorkload()
        config = MachineConfig()
        saved = set_collector(Collector(enabled=False))
        try:
            _profile_once(workload, config)  # warm caches outside the trace
            tracemalloc.start()
            try:
                _profile_once(workload, config)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        finally:
            set_collector(saved)
        obs_traces = snapshot.filter_traces((
            tracemalloc.Filter(True, events_module.__file__),
            tracemalloc.Filter(True, metrics_module.__file__),
        ))
        blocks = sum(stat.count for stat in obs_traces.statistics("lineno"))
        assert blocks == 0, obs_traces.statistics("lineno")

    def test_enabled_collector_still_records(self):
        # Sanity check that the probe above is meaningful: the same run
        # with an enabled collector does emit events.
        collector = Collector(enabled=True)
        saved = set_collector(collector)
        try:
            _profile_once(TinyWorkload(), MachineConfig())
        finally:
            set_collector(saved)
        assert len(collector) > 0
        names = {event.name for event in collector.events()}
        assert "profiler.tasks" in names


class TestMetricUpdatesAreAllocationLight:
    def test_histogram_observe_allocates_no_new_objects(self):
        hist = metrics_module.Histogram("h", buckets=(1.0, 10.0))
        hist.observe(0.5)  # warm the float boxes
        tracemalloc.start()
        try:
            for _ in range(100):
                hist.observe(5.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        traces = snapshot.filter_traces((
            tracemalloc.Filter(True, metrics_module.__file__),
        ))
        # Bucket/count updates are in-place on pre-built structures;
        # at most transient float boxes show up.
        blocks = sum(stat.count for stat in traces.statistics("lineno"))
        assert blocks <= 2
