"""Simulation-core benchmark: reference vs fast interpreter.

For each workload the IR is compiled once (untimed), then the full
scheme matrix (cae/dae/manual) is profiled under the reference
interpreter and under the fast core (decoded functions compiled to
Python source), timing only the profiling itself.  Writes per-workload wall times, speedups, the
geomean speedup, streamed-event totals, and fast-path diagnostics
(decode-cache hits, MRU short-circuits, event objects allocated) to
``BENCH_sim.json``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_sim.py

CI regression guard: ``--check benchmarks/BENCH_sim_baseline.json``
fails (exit 1) when the measured geomean speedup drops below
``--min-speedup`` (default 2.0) or below half the recorded baseline —
tolerant thresholds, so shared-runner noise does not flake the build,
but a real fast-path regression (decode cache broken, generated code
de-optimized) cannot land silently.

Not a pytest module on purpose — the tier-1 suite must stay fast; CI
runs this as a separate step on a workload subset.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from typing import Optional

from repro.engine.products import ALL_SCHEMES
from repro.interp import decode_stats, reset_decode_stats
from repro.runtime.profiler import TaskStreamProfiler
from repro.sim.config import MachineConfig
from repro.workloads import ALL_WORKLOADS, workload_by_name


def _phase_events(profile) -> int:
    counts = profile.counts
    return sum(counts.total(kind) for kind in ("load", "store", "prefetch"))


def _bench_leg(workload, interp: Optional[str], scale: int,
               config: MachineConfig) -> dict:
    """Profile ``workload`` under every scheme with one interpreter —
    ``"reference"``, or ``None`` for the fast core (one scheme per
    profiler, each recording into a store of its own, so no scheme has
    a donor and every phase is interpreted); time only the profiling
    (compile and instantiate are untimed)."""
    compiled = workload.compile(None)
    elapsed = 0.0
    instructions = 0
    events = 0
    mru = 0
    for scheme in ALL_SCHEMES:
        memory, tasks, _ = workload.instantiate(scale=scale, compiled=compiled)
        profiler = TaskStreamProfiler(memory, config, interp=interp)
        started = time.perf_counter()
        stream = profiler.profile(tasks, scheme)
        elapsed += time.perf_counter() - started
        mru += stream.mru_shortcircuits
        for task in stream.tasks:
            for profile in (task.execute, task.access):
                if profile is None:
                    continue
                instructions += profile.instructions
                events += _phase_events(profile)
    return {
        "elapsed_s": round(elapsed, 4),
        "instructions": instructions,
        "events_streamed": events,
        # The reference wraps every event in a MemoryEvent object; the
        # fast core's generated code extends the phase's flat event
        # list with three scalars.
        "event_objects_allocated": events if interp == "reference" else 0,
        "mru_shortcircuits": mru,
        "minstr_per_s": round(instructions / elapsed / 1e6, 2)
        if elapsed else None,
    }


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(names, scale: int) -> dict:
    config = MachineConfig()
    rows = []
    reset_decode_stats()
    for name in names:
        reference = _bench_leg(
            workload_by_name(name), "reference", scale, config,
        )
        fast = _bench_leg(workload_by_name(name), None, scale, config)
        assert reference["instructions"] == fast["instructions"], name
        assert reference["events_streamed"] == fast["events_streamed"], name
        speedup = (
            reference["elapsed_s"] / fast["elapsed_s"]
            if fast["elapsed_s"] else None
        )
        rows.append({
            "workload": name,
            "reference": reference,
            "fast": fast,
            "speedup": round(speedup, 2) if speedup else None,
        })
        print("%-10s ref %7.2fs  fast %7.2fs  speedup %5.2fx"
              % (name, reference["elapsed_s"], fast["elapsed_s"],
                 speedup or 0.0))
    return {
        "bench": "sim",
        "scale": scale,
        "workloads": rows,
        "geomean_speedup": round(
            _geomean([r["speedup"] for r in rows if r["speedup"]]), 2,
        ),
        "decode": decode_stats(),
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
        print("FAIL: fast interpreter regressed below %.2fx" % floor)
        return 1
    print("OK: fast core within budget")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workload names (default: all seven)")
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a recorded baseline JSON; "
                             "exit 1 on regression")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="hard floor for the geomean fast-vs-reference "
                             "speedup (default 2.0)")
    args = parser.parse_args(argv)

    names = args.workloads or [cls().name for cls in ALL_WORKLOADS]
    doc = run_bench(names, args.scale)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.out)
    if args.check:
        return check_regression(doc, args.check, args.min_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
