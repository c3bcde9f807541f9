#!/usr/bin/env python
"""End-to-end DVFS pipeline on one benchmark application.

Profiles the LibQ workload under coupled (CAE), compiler-DAE and
manual-DAE execution, then schedules each under the paper's frequency
policies and prints the Figure-3-style comparison: time, energy and EDP
normalized to coupled execution at max frequency.

Run:  python examples/dvfs_pipeline.py  [--workload libq] [--scale 1]
"""

import argparse

from repro.evaluation import run_workload, schedule
from repro.power import FrequencyPolicy
from repro.runtime import Scheme
from repro.sim import MachineConfig
from repro.workloads import workload_by_name


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="libq")
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()

    config = MachineConfig()
    workload = workload_by_name(args.workload)
    print("profiling %r (scale %d) under cae/dae/manual..."
          % (workload.name, args.scale))
    run = run_workload(workload, scale=args.scale, config=config)

    print("tasks: %d" % run.task_count)
    for name, method in run.compiled.methods.items():
        print("  %-16s -> %s access version" % (name, method))

    baseline = schedule(
        run, Scheme.CAE, FrequencyPolicy.from_name("fmax", config), config,
    )
    print("\nbaseline (CAE @ %.1f GHz): %.1f us, %.1f uJ"
          % (config.fmax.freq_ghz, baseline.time_ns / 1e3,
             baseline.energy_nj / 1e3))

    print("\n%-28s %8s %8s %8s %12s" % (
        "configuration", "time", "energy", "EDP", "transitions",
    ))
    for label, scheme, policy in (
        ("CAE (Optimal f.)", Scheme.CAE, "optimal"),
        ("Compiler DAE (Min/Max f.)", Scheme.DAE, "minmax"),
        ("Compiler DAE (Optimal f.)", Scheme.DAE, "optimal"),
        ("Manual DAE (Min/Max f.)", Scheme.MANUAL, "minmax"),
        ("Manual DAE (Optimal f.)", Scheme.MANUAL, "optimal"),
    ):
        result = schedule(
            run, scheme, FrequencyPolicy.from_name(policy, config), config,
        )
        print("%-28s %8.3f %8.3f %8.3f %12d" % (
            label,
            result.time_ns / baseline.time_ns,
            result.energy_nj / baseline.energy_nj,
            result.edp_js / baseline.edp_js,
            result.transitions,
        ))

    print("\n(normalized to CAE at max frequency; EDP < 1.0 is better)")


if __name__ == "__main__":
    main()
