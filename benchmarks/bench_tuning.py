"""Tuning benchmark: strategy evaluation counts and cold/warm cost.

Tunes one workload under each search strategy and writes evaluation
counts and wall times to ``BENCH_tuning.json``:

* ``exhaustive`` — the full (access, execute) grid, the cost ceiling;
* ``golden``     — golden-section on the continuous V/f line;
* ``descent``    — coordinate descent from the phase-local seed;
* ``warm``       — the full ``all``-strategy run repeated against a
  populated cache (must re-schedule nothing).

The interesting numbers: golden/descent should need a fraction of the
grid's 36 schedule evaluations while finding a candidate no worse than
the phase-local baseline, and the warm leg must show zero schedule
evaluations (engine + tuning cache hits only).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_tuning.py --workload cg

Not a pytest module on purpose — the tier-1 suite must stay fast; CI
runs this as a separate step at scale 1.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time

from repro.tuning import tune_workload


def _measure(workload: str, strategy: str, cache_dir: str,
             scale: int) -> dict:
    started = time.perf_counter()
    result = tune_workload(
        workload, strategy=strategy, scale=scale, cache_dir=cache_dir,
        install=False,
    )
    elapsed = time.perf_counter() - started
    stats = result.stats
    return {
        "elapsed_s": round(elapsed, 4),
        "strategy": strategy,
        "best": result.best.label,
        "best_value": result.best.value,
        "phase_local_value": result.phase_local.value,
        "schedule_evals": stats.schedule_evals,
        "cache_hits": stats.cache_hits,
        "strategy_evaluations": {
            s.name: s.evaluations for s in result.strategies
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cg")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--out", default="BENCH_tuning.json")
    args = parser.parse_args(argv)

    legs = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-tuning-") as root:
        # Separate cold cache per strategy so each leg pays its own
        # schedule evaluations.
        for strategy in ("exhaustive", "golden", "descent"):
            with tempfile.TemporaryDirectory(
                prefix="repro-bench-tuning-%s-" % strategy
            ) as leg_root:
                legs[strategy] = _measure(
                    args.workload, strategy, leg_root, args.scale
                )
        cold = _measure(args.workload, "all", root, args.scale)
        warm = _measure(args.workload, "all", root, args.scale)
    legs["all_cold"] = cold
    legs["all_warm"] = warm

    doc = {
        "bench": "tuning",
        "workload": args.workload,
        "scale": args.scale,
        **legs,
        "speedup_warm": round(
            cold["elapsed_s"] / warm["elapsed_s"], 2
        ) if warm["elapsed_s"] else None,
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(json.dumps(doc, indent=2))

    failed = False
    if warm["schedule_evals"] != 0:
        print("WARNING: warm leg re-scheduled %d candidates"
              % warm["schedule_evals"])
        failed = True
    for name in ("golden", "descent"):
        if legs[name]["best_value"] > legs[name]["phase_local_value"]:
            print("WARNING: %s strategy lost to the phase-local baseline"
                  % name)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
