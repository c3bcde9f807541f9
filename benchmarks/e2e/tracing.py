"""Per-layer time spans, recorded from outside the program.

A :class:`Tracer` imports every ``repro`` submodule, then replaces each
layer's entry point (:data:`ENTRY_POINTS`) with a timing wrapper
wherever the original object is bound: every module attribute that
``is`` the original function, and for methods the attribute on the
class itself.  :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory as ``(span_id, parent_id, layer, name, start,
end)`` tuples, ``start`` and ``end`` read from the tracer's clock (the
benchmark passes the process's CPU clock); :func:`layer_metrics` turns
them into the per-layer
metrics and :func:`chrome_events` into Chrome ``trace_event`` records.
Only the traced benchmark iteration installs a tracer, so the timed
iterations run the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict


def _count_access_phase(counters, args, kwargs, result):
    counters["access_phase.affine"] += result.method == "affine"


def _count_profiler(counters, args, kwargs, result):
    for task in result.tasks:
        for phase in (task.access, task.execute):
            if phase is not None:
                counters["profiler.instructions"] += phase.instructions
                counts = phase.counts
                counters["profiler.events"] += (
                    sum(counts.loads.values()) + sum(counts.stores.values())
                    + sum(counts.prefetches.values())
                )


def _count_replay(counters, args, kwargs, result):
    counters["sim.replay.events"] += result


def _count_scheduler(counters, args, kwargs, result):
    profiles = args[1] if len(args) > 1 else kwargs["profiles"]
    counters["scheduler.tasks"] += len(profiles)


def _count_engine(counters, args, kwargs, result):
    counters["engine.fallbacks"] += result.stats.fallbacks


def _count_cache_load(counters, args, kwargs, result):
    counters["engine.cache.load.hits"] += result is not None


def _count_cache_store(counters, args, kwargs, result):
    if result is not None:
        counters["engine.cache.store.bytes"] += result.stat().st_size


#: ``(layer, module, qualified name, counter)``: the functions whose
#: calls are timed.  ``counter(counters, args, kwargs, result)`` adds the
#: layer's work counts after the call returns, outside its span.
ENTRY_POINTS = (
    ("frontend", "repro.frontend.lower", "compile_source", None),
    ("transform", "repro.transform.pipeline", "optimize_module", None),
    ("access_phase", "repro.transform.access_phase.driver",
     "generate_access_phase", _count_access_phase),
    ("polyhedral.count", "repro.polyhedral.counting",
     "union_count_polynomial", None),
    ("polyhedral.count", "repro.polyhedral.counting",
     "count_polynomial", None),
    ("polyhedral.hull", "repro.polyhedral.chernikova", "convex_union", None),
    ("workloads", "repro.workloads.base", "Workload.instantiate", None),
    ("profiler", "repro.runtime.profiler", "TaskStreamProfiler.profile",
     _count_profiler),
    ("sim.replay", "repro.sim.replay", "replay_phase", _count_replay),
    ("scheduler", "repro.runtime.scheduler", "DAEScheduler.run",
     _count_scheduler),
    ("engine", "repro.engine.pool", "run_experiment", _count_engine),
    ("engine.cache.load", "repro.engine.cache", "ProfileCache.load",
     _count_cache_load),
    ("engine.cache.store", "repro.engine.cache", "ProfileCache.store",
     _count_cache_store),
    ("engine.payload.encode", "repro.engine.products", "run_to_payload",
     None),
    ("engine.payload.decode", "repro.engine.products", "run_from_payload",
     None),
    ("evaluation", "repro.evaluation.experiments", "table1_rows", None),
    ("evaluation", "repro.evaluation.figure12", "figure1_demo", None),
    ("evaluation", "repro.evaluation.figure12", "figure2_demo", None),
    ("evaluation", "repro.evaluation.experiments", "figure3_rows", None),
    ("evaluation", "repro.evaluation.experiments", "figure4_series", None),
    ("evaluation", "repro.evaluation.experiments", "headline_numbers", None),
    ("evaluation", "repro.evaluation.experiments", "build_run_manifest",
     None),
    ("evaluation", "repro.evaluation.ablation", "ablate_workload", None),
    ("obs", "repro.obs.timeline", "energy_attribution", None),
    ("obs", "repro.obs.ledger", "RunLedger.record", None),
)


def _loaded_modules() -> list:
    """Every ``repro`` module imported so far."""
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None]


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters = defaultdict(int)
        #: Layers with an entry point that no longer exists; they
        #: report ``None`` instead of failing the run.
        self.missing: set = set()
        self._stack: list = []
        self._next_id = 1
        #: ``(owner, attribute, original)`` for every binding replaced.
        self.patches: list = []

    def install(self) -> None:
        """Import every ``repro`` submodule, so that every binding of an
        entry point exists, then wrap them all."""
        root = importlib.import_module("repro")
        for info in pkgutil.walk_packages(root.__path__, "repro."):
            importlib.import_module(info.name)
        modules = _loaded_modules()
        for layer, module_name, qualname, counter in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(layer)
                continue
            if not callable(original):
                self.missing.add(layer)
                continue
            wrapper = self._wrap(layer, qualname, original, counter)
            if path:
                # A method: patch the class itself; every caller looks
                # it up there.
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, name, func, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((span_id, parent, layer, name,
                                     start, end))
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        wrapper.__bench_layer__ = layer
        return wrapper


def installed_wrappers() -> int:
    """How many bindings in the loaded ``repro`` modules are timing
    wrappers (zero in an untraced process)."""
    def wrapped(value):
        return (isinstance(value, types.FunctionType)
                and "__bench_layer__" in vars(value))

    found = 0
    classes = set()
    for module in _loaded_modules():
        for value in list(vars(module).values()):
            if wrapped(value):
                found += 1
            elif isinstance(value, type) and value not in classes:
                classes.add(value)
                found += sum(map(wrapped, vars(value).values()))
    return found


def span_times(spans) -> dict:
    """Per layer: ``calls``, ``busy`` and ``self`` seconds.

    ``busy`` sums only a layer's outermost spans — a span nested (at any
    depth) inside another span of the same layer adds nothing, so
    recursion is not counted twice.  ``self`` is the time inside the
    layer's spans not covered by a direct child span; a same-layer
    child's own self time is added back, so ``self`` equals ``busy``
    minus the time spent in other wrapped layers.
    """
    by_id = {span[0]: span for span in spans}
    covered = defaultdict(float)
    for span_id, parent, _, _, start, end in spans:
        if parent in by_id:
            covered[parent] += end - start
    out = {}
    for span_id, parent, layer, _, start, end in spans:
        times = out.setdefault(layer, {"calls": 0, "busy": 0.0, "self": 0.0})
        times["calls"] += 1
        times["self"] += end - start - covered[span_id]
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != layer:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            times["busy"] += end - start
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


#: Per-layer metrics in report order: ``(name, unit, layer)``.  A metric
#: reads ``None`` when its layer's entry point is missing.
LAYER_METRICS = (
    ("frontend.calls", "count", "frontend"),
    ("frontend.busy_s", "s", "frontend"),
    ("transform.calls", "count", "transform"),
    ("transform.busy_s", "s", "transform"),
    ("access_phase.calls", "count", "access_phase"),
    ("access_phase.busy_s", "s", "access_phase"),
    ("access_phase.self_s", "s", "access_phase"),
    ("access_phase.affine_frac", "ratio", "access_phase"),
    ("polyhedral.count.calls", "count", "polyhedral.count"),
    ("polyhedral.count.busy_s", "s", "polyhedral.count"),
    ("polyhedral.hull.calls", "count", "polyhedral.hull"),
    ("polyhedral.hull.busy_s", "s", "polyhedral.hull"),
    ("workloads.calls", "count", "workloads"),
    ("workloads.busy_s", "s", "workloads"),
    ("profiler.calls", "count", "profiler"),
    ("profiler.busy_s", "s", "profiler"),
    ("profiler.self_s", "s", "profiler"),
    ("profiler.instructions", "count", "profiler"),
    ("profiler.events", "count", "profiler"),
    ("profiler.minstr_per_s", "Minstr/s", "profiler"),
    ("sim.replay.calls", "count", "sim.replay"),
    ("sim.replay.busy_s", "s", "sim.replay"),
    ("sim.replay.events", "count", "sim.replay"),
    ("sim.replay.mevents_per_s", "Mevents/s", "sim.replay"),
    ("sim.replay_frac", "ratio", "sim.replay"),
    ("scheduler.calls", "count", "scheduler"),
    ("scheduler.busy_s", "s", "scheduler"),
    ("scheduler.tasks", "count", "scheduler"),
    ("scheduler.ktasks_per_s", "ktasks/s", "scheduler"),
    ("engine.calls", "count", "engine"),
    ("engine.busy_s", "s", "engine"),
    ("engine.self_s", "s", "engine"),
    ("engine.fallbacks", "count", "engine"),
    ("engine.cache.load.calls", "count", "engine.cache.load"),
    ("engine.cache.load.busy_s", "s", "engine.cache.load"),
    ("engine.cache.hit_frac", "ratio", "engine.cache.load"),
    ("engine.cache.store.calls", "count", "engine.cache.store"),
    ("engine.cache.store.busy_s", "s", "engine.cache.store"),
    ("engine.cache.store.bytes", "B", "engine.cache.store"),
    ("engine.payload.encode.busy_s", "s", "engine.payload.encode"),
    ("engine.payload.decode.busy_s", "s", "engine.payload.decode"),
    ("evaluation.busy_s", "s", "evaluation"),
    ("evaluation.self_s", "s", "evaluation"),
    ("obs.busy_s", "s", "obs"),
    ("trace.overhead_frac", "ratio", None),
    ("trace.self_frac", "ratio", None),
)


def layer_metrics(spans, counters, missing, traced_wall_s,
                  untraced_wall_s) -> dict:
    """``{metric name: value}`` for every entry of :data:`LAYER_METRICS`.

    ``trace.overhead_frac`` is the traced wall time over the untraced
    median, minus one; ``trace.self_frac`` is the share of the traced
    wall time that the layers' self times account for.
    """
    times = span_times(spans)
    counters = defaultdict(int, counters)

    def get(layer, field):
        return times.get(layer, {}).get(field, 0)

    values = {
        "profiler.minstr_per_s": _ratio(
            counters["profiler.instructions"] / 1e6, get("profiler", "busy")),
        "sim.replay.mevents_per_s": _ratio(
            counters["sim.replay.events"] / 1e6, get("sim.replay", "busy")),
        "sim.replay_frac": _ratio(
            counters["sim.replay.events"], counters["profiler.events"]),
        "scheduler.ktasks_per_s": _ratio(
            counters["scheduler.tasks"] / 1e3, get("scheduler", "busy")),
        "access_phase.affine_frac": _ratio(
            counters["access_phase.affine"], get("access_phase", "calls")),
        "engine.cache.hit_frac": _ratio(
            counters["engine.cache.load.hits"],
            get("engine.cache.load", "calls")),
        "trace.overhead_frac": _ratio(traced_wall_s, untraced_wall_s) - 1.0,
        "trace.self_frac": _ratio(
            sum(layer["self"] for layer in times.values()), traced_wall_s),
    }
    span_fields = {"calls": "calls", "busy_s": "busy", "self_s": "self"}
    out = {}
    for name, _, layer in LAYER_METRICS:
        field = name.rsplit(".", 1)[1]
        if layer in missing:
            out[name] = None
        elif name in values:
            out[name] = values[name]
        elif field in span_fields:
            out[name] = get(layer, span_fields[field])
        else:
            out[name] = counters[name]
    return out


def chrome_events(spans, pid: int, label: str, origin: float) -> list:
    """Chrome ``trace_event`` records for one traced iteration.

    Each span becomes a complete (``"X"``) event on track ``(pid, 1)``
    carrying its span id, parent and iteration label; ``origin`` is the
    clock reading that maps to ``ts`` 0.  Events are sorted by start,
    parents before the children that share their start.
    """
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
        "args": {"name": label},
    }]
    for span_id, parent, layer, name, start, end in sorted(
            spans, key=lambda s: (s[4], -s[5])):
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"span_id": span_id, "parent": parent,
                     "iteration": label},
        })
    return events
