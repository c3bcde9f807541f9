"""Profile-matrix benchmark: full interpretation vs trace replay.

For each workload the IR is compiled once (untimed), then the full
scheme matrix (cae/dae/manual) is profiled twice — once with the fast
interpreter re-interpreting every scheme, once with the record/replay
engine (the first scheme records each phase's event trace, later
schemes replay the scheme-invariant execute streams through the cache
model).  Only the profiling is timed, best-of-``--repeats``, and the
serialized profiles of both legs are asserted byte-identical before
any number is reported.  Writes per-workload wall times, matrix
speedups, the geomean speedup, and the events-replayed vs
events-interpreted split to ``BENCH_profile.json``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_profile.py

CI regression guard: ``--check benchmarks/BENCH_profile_baseline.json``
fails (exit 1) when the measured geomean speedup drops below
``--min-speedup`` (default 1.5) or below half the recorded baseline —
tolerant thresholds, so shared-runner noise does not flake the build,
but a real replay regression (fallback tripping on every workload,
replay loop de-optimized) cannot land silently.

Not a pytest module on purpose — the tier-1 suite must stay fast; CI
runs this as a separate step on a workload subset.
"""

from __future__ import annotations

import argparse
import json
import math
import time

from repro.engine.products import (
    ALL_SCHEMES,
    CompiledSummary,
    WorkloadRun,
    run_to_payload,
)
from repro.interp.trace import TraceStore
from repro.runtime.profiler import TaskStreamProfiler
from repro.sim.config import MachineConfig
from repro.workloads import ALL_WORKLOADS, workload_by_name


def _bench_leg(workload, replay: bool, scale: int,
               config: MachineConfig) -> dict:
    """Profile the full scheme matrix with the fast core; time only the
    profiling (compile and instantiate are untimed).  The ``replay``
    leg shares one :class:`TraceStore` across the schemes; the ``fast``
    leg passes none, so each scheme records into a store of its own
    and re-interprets every phase."""
    compiled = workload.compile(None)
    store = TraceStore() if replay else None
    elapsed = 0.0
    profiles = {}
    task_count = 0
    for scheme in ALL_SCHEMES:
        memory, tasks, _ = workload.instantiate(scale=scale, compiled=compiled)
        profiler = TaskStreamProfiler(memory, config)
        started = time.perf_counter()
        stream = profiler.profile(tasks, scheme, trace_store=store)
        elapsed += time.perf_counter() - started
        profiles[scheme] = stream
        task_count = len(tasks)
    run = WorkloadRun(
        workload=workload, compiled=CompiledSummary.from_compiled(compiled),
        profiles=profiles, task_count=task_count,
    )
    result = {
        "elapsed_s": round(elapsed, 4),
        "payload": json.dumps(run_to_payload(run), sort_keys=True),
    }
    if store is not None:
        result["events_recorded"] = store.recorded_events
        result["events_replayed"] = store.replayed_events
        result["phases_replayed"] = store.replayed_phases
    return result


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(names, scale: int, repeats: int) -> dict:
    config = MachineConfig()
    rows = []
    for name in names:
        fast = None
        replay = None
        for _ in range(max(1, repeats)):
            fast_rep = _bench_leg(workload_by_name(name), False, scale,
                                  config)
            replay_rep = _bench_leg(workload_by_name(name), True, scale,
                                    config)
            assert fast_rep["payload"] == replay_rep["payload"], (
                "replayed profiles for %r are not byte-identical" % name
            )
            if fast is None or fast_rep["elapsed_s"] < fast["elapsed_s"]:
                fast = fast_rep
            if replay is None or replay_rep["elapsed_s"] < replay["elapsed_s"]:
                replay = replay_rep
        assert replay["events_replayed"] > 0, (
            "replay leg for %r fell back to interpretation everywhere" % name
        )
        for leg in (fast, replay):
            leg.pop("payload")
        speedup = (
            fast["elapsed_s"] / replay["elapsed_s"]
            if replay["elapsed_s"] else None
        )
        rows.append({
            "workload": name,
            "identical": True,
            "fast": fast,
            "replay": replay,
            "speedup": round(speedup, 2) if speedup else None,
        })
        print("%-10s interp %7.2fs  replay %7.2fs  speedup %5.2fx  "
              "(%d events replayed, %d interpreted+recorded)"
              % (name, fast["elapsed_s"], replay["elapsed_s"],
                 speedup or 0.0, replay["events_replayed"],
                 replay["events_recorded"]))
    return {
        "bench": "profile",
        "scale": scale,
        "repeats": repeats,
        "workloads": rows,
        "geomean_speedup": round(
            _geomean([r["speedup"] for r in rows if r["speedup"]]), 2,
        ),
        "events_replayed": sum(
            r["replay"]["events_replayed"] for r in rows
        ),
        "events_recorded": sum(
            r["replay"]["events_recorded"] for r in rows
        ),
    }


def check_regression(doc: dict, baseline_path: str,
                     min_speedup: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    measured = doc["geomean_speedup"]
    recorded = baseline["geomean_speedup"]
    # Tolerant: fail only below the hard floor or below half of what
    # this machine class historically achieved.
    floor = max(min_speedup, recorded / 2.0)
    print("geomean speedup %.2fx (baseline %.2fx, floor %.2fx)"
          % (measured, recorded, floor))
    if measured < floor:
        print("FAIL: trace replay regressed below %.2fx" % floor)
        return 1
    print("OK: replay engine within budget")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workload names (default: all seven)")
    parser.add_argument("--out", default="BENCH_profile.json")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a recorded baseline JSON; "
                             "exit 1 on regression")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="hard floor for the geomean replay-vs-interpret "
                             "speedup (default 1.5)")
    args = parser.parse_args(argv)

    names = args.workloads or [cls().name for cls in ALL_WORKLOADS]
    doc = run_bench(names, args.scale, args.repeats)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.out)
    if args.check:
        return check_regression(doc, args.check, args.min_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
