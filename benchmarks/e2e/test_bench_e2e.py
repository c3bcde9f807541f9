"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  The
child-process tests run the ``compile`` workload with two generated
programs, a few seconds each.
"""

from __future__ import annotations

import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench_e2e
import hostspeed
import tracing


# -- wrappers -----------------------------------------------------------------


def test_uninstall_restores_every_patched_attribute():
    import repro
    from repro.frontend import lower

    tracer = tracing.Tracer()
    tracer.install()
    try:
        patches = list(tracer.patches)
        assert not tracer.missing
        assert tracing.installed_wrappers() == len(patches)
        # A function is wrapped wherever it is bound, not just at home.
        assert hasattr(repro.compile_source, "__bench_layer__")
        assert hasattr(lower.compile_source, "__bench_layer__")
    finally:
        tracer.uninstall()
    assert len(patches) > len(tracing.ENTRY_POINTS)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    assert tracing.installed_wrappers() == 0


def test_missing_entry_point_reports_null(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("scheduler", "repro.runtime.scheduler", "DAEScheduler.gone", None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"scheduler"}
    values = tracing.layer_metrics([], {}, tracer.missing, 1.0, 1.0)
    assert values["scheduler.busy_s"] is None
    assert values["scheduler.tasks"] is None
    assert values["profiler.busy_s"] == 0


# -- span arithmetic ----------------------------------------------------------

#: engine [0, 10] > profiler [1, 5] > profiler [2, 4] > sim.replay
#: [2.5, 3.5]; engine > scheduler [6, 8].  The inner profiler span is a
#: recursive call of the same entry point.
SPANS = [
    (4, 3, "sim.replay", "replay_phase", 2.5, 3.5),
    (3, 2, "profiler", "profile", 2.0, 4.0),
    (2, 1, "profiler", "profile", 1.0, 5.0),
    (5, 1, "scheduler", "run", 6.0, 8.0),
    (1, 0, "engine", "run_experiment", 0.0, 10.0),
]


def test_span_times_nested_and_recursive():
    times = tracing.span_times(SPANS)
    assert times["engine"] == {"calls": 1, "busy": 10.0, "self": 4.0}
    # Outermost profiler span only; self excludes the replay inside.
    assert times["profiler"] == {"calls": 2, "busy": 4.0, "self": 3.0}
    assert times["sim.replay"] == {"calls": 1, "busy": 1.0, "self": 1.0}
    assert times["scheduler"] == {"calls": 1, "busy": 2.0, "self": 2.0}
    assert sum(t["self"] for t in times.values()) == 10.0


def test_wrapper_records_parents_through_recursion():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def fib(n):
        return n if n < 2 else fib_w(n - 1) + fib_w(n - 2)

    fib_w = tracer._wrap("polyhedral.count", "fib", fib, None)
    assert fib_w(3) == 2
    ids = {span[0]: span for span in tracer.spans}
    roots = [s for s in tracer.spans if s[1] == 0]
    assert len(roots) == 1 and len(tracer.spans) == 5
    assert all(s[1] in ids for s in tracer.spans if s[1])
    times = tracing.span_times(tracer.spans)["polyhedral.count"]
    assert times["calls"] == 5
    assert times["busy"] == roots[0][5] - roots[0][4]
    assert times["self"] == times["busy"]


def test_layer_metrics_ratios():
    counters = {"profiler.instructions": 8_000_000, "profiler.events": 400,
                "sim.replay.events": 100, "scheduler.tasks": 6000}
    values = tracing.layer_metrics(SPANS, counters, set(), 12.0, 10.0)
    assert values["profiler.minstr_per_s"] == 2.0
    assert values["sim.replay_frac"] == 0.25
    assert values["sim.replay.mevents_per_s"] == 100 / 1e6
    assert values["scheduler.ktasks_per_s"] == 3.0
    assert values["trace.overhead_frac"] == pytest.approx(0.2)
    assert values["trace.self_frac"] == pytest.approx(10.0 / 12.0)
    assert values["engine.self_s"] == 4.0
    assert values["frontend.calls"] == 0


def test_chrome_events_sorted_parent_first():
    events = tracing.chrome_events(SPANS, 3, "w#traced", 0.0)
    assert events[0]["ph"] == "M"
    spans = events[1:]
    assert [e["args"]["span_id"] for e in spans] == [1, 2, 3, 4, 5]
    assert all(e["pid"] == 3 and e["tid"] == 1 for e in spans)
    assert spans[0]["dur"] == 10e6


# -- statistics and compare ---------------------------------------------------


def test_quartiles():
    assert bench_e2e.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert bench_e2e.quartiles([7.5]) == (7.5, 7.5, 7.5)
    assert bench_e2e.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def _metric(value, q1=None, q3=None):
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def test_judge_verdicts():
    judge = bench_e2e.judge
    assert judge(_metric(10.0), _metric(10.4), 0.05) == ("ok", False)
    assert judge(_metric(10.0), _metric(10.6), 0.05) == ("regressed", True)
    assert judge(_metric(10.0), _metric(9.0), 0.05) == ("ok", False)
    # A spread wider than the bound can show no change of that size.
    wide = _metric(10.0, 9.0, 11.0)
    assert judge(wide, _metric(10.2), 0.05) == ("unresolved", False)
    assert judge(wide, _metric(12.0), 0.05) == ("unresolved", False)
    assert judge(_metric(10.0), wide, 0.05) == ("unresolved", False)
    # A zero-bound count: any increase regresses.
    assert judge(_metric(0.0), _metric(0.0), 0.0) == ("ok", False)
    assert judge(_metric(0.0), _metric(0.25), 0.0) == ("regressed", True)


def _results(scale=1.0, fail=0.0):
    metrics = {}
    for name, unit, bound in bench_e2e.E2E_METRICS:
        value = fail if name == "fail_frac" else 2.0 * scale
        metrics[name] = dict(_metric(value), unit=unit, n=4, bound=bound)
    return {"workloads": {name: {"metrics": metrics}
                          for name in bench_e2e.WORKLOADS}}


@pytest.mark.parametrize("scale, fail, code", [
    (1.0, 0.0, 0), (1.04, 0.0, 0), (0.5, 0.0, 0), (1.3, 0.0, 1),
    (1.0, 0.5, 1),
])
def test_compare_exit_code(tmp_path, capsys, scale, fail, code):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(_results()))
    b.write_text(json.dumps(_results(scale, fail)))
    assert bench_e2e.main(["compare", str(a), str(b)]) == code
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == len(bench_e2e.WORKLOADS) * len(bench_e2e.E2E_METRICS)
    assert any(row.endswith("| regressed |") for row in rows) == bool(code)


def test_compare_passes_unresolved_rows(tmp_path, capsys):
    wide = _results()
    for result in wide["workloads"].values():
        result["metrics"]["wall_s"].update(q1=1.0, q3=3.0)
    slower = _results()
    for result in slower["workloads"].values():
        result["metrics"]["wall_s"]["value"] = 2.5
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(wide))
    b.write_text(json.dumps(slower))
    assert bench_e2e.main(["compare", str(a), str(b)]) == 0
    rows = [row for row in capsys.readouterr().out.splitlines()
            if "| wall_s |" in row]
    assert len(rows) == len(bench_e2e.WORKLOADS)
    assert all(row.endswith("| unresolved |") for row in rows)


def test_compare_reads_baseline_first_run(tmp_path):
    base = tmp_path / "baseline.json"
    base.write_text(json.dumps({"commit": "x", "runs": [_results(),
                                                        _results(3.0)]}))
    new = tmp_path / "B.json"
    new.write_text(json.dumps(_results(1.1)))
    assert bench_e2e.main(["compare", str(base), str(new)]) == 1


def test_benchmark_json_matches_the_script():
    doc = json.loads((bench_e2e.ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(bench_e2e.WORKLOADS)
    declared = {(m["name"], m["unit"], m["bound"])
                for m in doc["end_to_end"]}
    assert declared == {m for m in bench_e2e.E2E_METRICS
                        if m[0] in bench_e2e.RESULT_LINE_METRICS}
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.LAYER_METRICS]


# -- host speed ---------------------------------------------------------------


def test_sampler_speed_is_the_mean_probe_speed():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_PROBE_S
    # One stalled probe among four stands for a quarter of the window.
    sampler.samples += [ref, ref, ref, 1000 * ref]
    assert sampler.split() == pytest.approx(0.75025)
    sampler.samples += [ref / 2]
    assert sampler.split() == 2.0


def test_sampler_probes_while_the_process_works():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 20 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.split() > 0
    assert sampler.probe_s == pytest.approx(sum(sampler.samples))
    assert time.process_time() - sampler.clock() == pytest.approx(
        sampler.probe_s, abs=1e-3)


def test_probe_time_leaves_out_waiting(monkeypatch):
    # A probe the core did not run for costs nothing: CPU time, not wall.
    monkeypatch.setattr(hostspeed, "probe", lambda: time.sleep(0.05))
    assert hostspeed.timed_probe() < 0.01


# -- children -----------------------------------------------------------------


def test_child_peak_rss_excludes_the_parents():
    ballast = b"x" * (96 << 20)
    code = ("import sys; sys.path.insert(0, %r); import bench_e2e; "
            "print(bench_e2e.peak_rss_mb())" % str(bench_e2e.HERE))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert len(ballast) >> 20 == 96 and bench_e2e.peak_rss_mb() > 96
    assert float(out) < 48


def _runner(tmp_path, expected):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    return bench_e2e.Runner(scratch, expected, seed=0, generated_programs=2)


@pytest.fixture(scope="module")
def expected():
    return json.loads(Path(bench_e2e.EXPECTED_PATH).read_text())


def test_timed_children_run_unwrapped_and_traced_ones_wrapped(
        tmp_path, expected):
    runner = _runner(tmp_path, expected)
    inputs = runner.prepare("compile")
    tally = bench_e2e.Tally()
    timed = runner.iterate("compile", inputs, tally)
    traced = runner.iterate("compile", inputs, tally, role="traced")
    assert tally.failed == 0 and tally.attempted == 2
    assert timed["wrappers"] == 0 and "spans" not in timed
    assert timed["wall_s"] == timed["cpu_s"] * timed["speed"] > 0
    assert timed["setup_s"] > 0
    assert traced["wrappers"] > 0 and traced["missing"] == []
    layers = bench_e2e.layer_doc(tally)
    assert layers["frontend.calls"]["value"] == 9
    assert layers["transform.calls"]["value"] == 9
    assert layers["profiler.calls"]["value"] == 0


def test_corrupt_expected_digest_fails_every_iteration(tmp_path, expected):
    corrupt = json.loads(json.dumps(expected))
    corrupt["compile"]["lu"] = "0" * 64
    runner = _runner(tmp_path, corrupt)
    inputs = runner.prepare("compile")
    tally = bench_e2e.Tally()
    for _ in range(2):
        runner.iterate("compile", inputs, tally)
    metrics = bench_e2e.e2e_metrics(tally)
    assert metrics["fail_frac"]["value"] == 1.0
    assert metrics["fail_frac"]["n"] == 2
