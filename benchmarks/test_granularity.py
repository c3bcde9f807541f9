"""Task-granularity sensitivity (Section 3.1's sizing rule).

"We size the task so that its working set just fits the private cache
hierarchy of a core."  Sweeping LibQ's records-per-task shows why: tiny
tasks cannot amortize per-task overhead and DVFS transitions, while
tasks whose prefetched working set overflows L1+L2 evict their own data
before the execute phase consumes it.
"""

from repro.power import FixedPolicy, OptimalEDPPolicy
from repro.runtime import DAEScheduler, TaskStreamProfiler
from repro.workloads import LibQuantumWorkload

CHUNKS = (96, 480, 1920)  # records/task: ~3 KiB, ~15 KiB, ~60 KiB


class _SizedLibQ(LibQuantumWorkload):
    def __init__(self, chunk):
        self.chunk = chunk

    def states(self, scale):
        return 3840 * scale  # fixed footprint; only the split varies


def test_granularity_sweep(config, benchmark, capsys):
    def sweep():
        results = {}
        for chunk in CHUNKS:
            workload = _SizedLibQ(chunk)
            compiled = workload.compile()
            profiles = {}
            for scheme in ("cae", "dae"):
                memory, tasks, _ = workload.instantiate(
                    scale=1, compiled=compiled
                )
                profiler = TaskStreamProfiler(memory, config)
                profiles[scheme] = profiler.profile(tasks, scheme)
            scheduler = DAEScheduler(config)
            base = scheduler.run(
                profiles["cae"].tasks, "cae", FixedPolicy(config.fmax)
            )
            dae = scheduler.run(
                profiles["dae"].tasks, "dae", OptimalEDPPolicy()
            )
            execute = profiles["dae"].aggregate_execute()
            residual_misses = (
                execute.counts.loads["mem"]
                + execute.counts.loads["mem_stream"]
            )
            results[chunk] = (
                dae.edp_js / base.edp_js,
                dae.time_ns / base.time_ns,
                residual_misses,
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nLibQ granularity sweep (records/task -> EDP, time, "
              "execute-phase residual misses):")
        for chunk in CHUNKS:
            edp, time, misses = results[chunk]
            print("  %5d (%5.1f KiB): EDP %.3f  time %.3f  misses %6d"
                  % (chunk, chunk * 32 / 1024, edp, time, misses))

    small, fitted, oversized = (results[c] for c in CHUNKS)

    # The paper's rule: the L1+L2-sized task wins EDP.
    assert fitted[0] < small[0]
    assert fitted[0] < oversized[0]
    # Oversized tasks leak prefetched lines: execute re-misses them.
    assert oversized[2] > 4 * fitted[2]
