"""End-to-end benchmark: four CLI workloads in reference seconds, with a
traced per-layer split.

Every iteration runs one workload the way a user runs the system — a
``python -m repro.evaluation`` verb through ``main(argv)``, or the
top-level compile API — in a fresh child process, one child at a time,
with ``jobs=1``.  Each child gets ``PYTHONHASHSEED=0``, no
``REPRO_INTERP``/``REPRO_CACHE_DIR``/``REPRO_VERIFY_PASSES``, and
fresh cache, ledger, home and temporary directories under
``.bench_e2e/`` in the repository, which is removed when the run ends.
Every output is checked against ``expected.json``.  Times are the
child's CPU seconds scaled by the host speed it measured meanwhile
(hostspeed.py), so that other tenants of a shared host move them little.

Usage (from the repository root)::

    python benchmarks/e2e/bench_e2e.py --out A.json   # all four workloads
    python benchmarks/e2e/bench_e2e.py --workload sweep --seed 1 \\
        --seconds 20 --trace 0                        # one workload, timed
    python benchmarks/e2e/bench_e2e.py compare A.json B.json
    python benchmarks/e2e/bench_e2e.py expect         # regenerate expected.json

Without ``--workload`` the four workloads run round-robin for the fixed
iteration counts in :data:`WORKLOADS`, then one traced iteration each;
results go to ``--out`` and the traced spans to ``<out>.trace.json``.
With ``--workload`` one workload runs for ``--seconds`` and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
SCRATCH_ROOT = ROOT / ".bench_e2e"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed iterations of a full run (``--workload`` runs time-bound).
    iterations: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("matrix-cold", 6,
             "the paper's matrix from an empty cache: interpretation and "
             "the streaming cache sink dominate, compile is ~12%"),
    Workload("matrix-warm", 30,
             "Table 1, Figures 1-4 and headline from a warm cache: "
             "scheduling and cache reads, no interpretation"),
    Workload("sweep", 5,
             "record once, replay 12 LLC sizes: the cache model fed from "
             "packed traces instead of the streaming sink"),
    Workload("compile", 10,
             "paper sources plus 200 generated programs through the "
             "compile API: frontend, passes, polyhedral, no interpretation"),
)}

#: End-to-end metrics: ``(name, unit, bound)``; lower is better for all.
#: ``bound`` is the share of the base median a metric may worsen by.
#: Times are in reference seconds (hostspeed.py).  Ten 20-second
#: ``--workload`` runs spread ``wall_s`` by 1.5-2% of the median, and
#: sets of such runs on a shared host moved their medians by about 3%:
#: +5% would leave a second set too little room, +10% leaves it three
#: times its spread.
E2E_METRICS = (
    ("wall_s", "s", 0.10),
    ("setup_s", "s", 0.10),
    ("peak_rss_mb", "MiB", 0.05),
    ("fail_frac", "ratio", 0.0),
)
#: The end-to-end metrics a ``--workload`` run reports.  ``fail_frac``
#: is 0 on a correct program, so failures reach its caller as
#: ``attempted``/``failed`` instead.
RESULT_LINE_METRICS = ("wall_s", "setup_s", "peak_rss_mb")

SWEEP_APPS = ("cholesky", "fft", "libq")
SWEEP_VALUES = (12, 16, 20, 32, 40, 48, 64, 80, 96, 128, 160, 192)
GENERATED_PROGRAMS = 200
#: Set-up-only children at the start of a ``--workload`` run, so that
#: ``setup_s`` is a median even when the run has room for one timed
#: iteration (a 14 s sweep in a 20 s run).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
STRIPPED_ENV = ("REPRO_INTERP", "REPRO_CACHE_DIR", "REPRO_VERIFY_PASSES")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or expectations,
    or a set-up step failed)."""


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``VmHWM``).

    Not ``ru_maxrss``: exec carries the replaced address space's peak
    into it, and a child spawned by vfork replaces its parent's, so
    ``ru_maxrss`` never reads below the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("/proc/self/status has no VmHWM line")


# -- child side ---------------------------------------------------------------
# These functions run inside the child process, after ``repro`` has been
# imported from this checkout's ``src``.  Each ``_work_*`` does the
# workload's set-up and returns ``(run, check)``: ``run()`` is the timed
# call, ``check(output)`` turns its output into digests.


def _cli(argv):
    from repro.evaluation.__main__ import main

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code:
            raise RuntimeError("%s exited %s: %s"
                               % (argv[0], code, err.getvalue()[-2000:]))
        return out.getvalue()
    return run


def manifest_digests(manifest: dict) -> dict:
    """Per workload: its task count and schedule summaries."""
    return {
        name: digest({
            "task_count": doc["task_count"],
            "summaries": {label: schedule["summary"]
                          for label, schedule in doc["schedules"].items()},
        })
        for name, doc in manifest["workloads"].items()
    }


def _work_matrix_cold(inputs, tmp):
    manifest = tmp / "manifest.json"
    run = _cli(["runs", "record", "--jobs", "1",
                "--cache-dir", str(tmp / "cache"),
                "--ledger-dir", str(tmp / "ledger"), "--out", str(manifest)])
    return run, lambda _: manifest_digests(json.loads(manifest.read_text()))


def _work_matrix_warm(inputs, tmp):
    run = _cli(["all", "--jobs", "1", "--cache-dir", inputs["warm"]])
    return run, lambda stdout: {"stdout": digest(stdout)}


def _work_sweep(inputs, tmp):
    values = ",".join(str(v) for v in SWEEP_VALUES)
    calls = [_cli(["ablate", app, "--vary", "llc_kb", "--values", values,
                   "--out", str(tmp / ("%s.json" % app))])
             for app in SWEEP_APPS]

    def run():
        for call in calls:
            call()

    def check(_):
        out = {}
        for app in SWEEP_APPS:
            report = json.loads((tmp / ("%s.json" % app)).read_text())
            for row in report["rows"]:
                out["%s@%g" % (app, row["value"])] = digest(row["configs"])
        return out
    return run, check


def _work_compile(inputs, tmp):
    import repro
    from repro.ir.verifier import verify_module

    sources = json.loads(Path(inputs["sources"]).read_text())

    def run():
        out = []
        for name, source, paper in sources:
            module = repro.compile_source(source, name=name)
            repro.optimize_module(module)
            results = repro.generate_module_access_phases(module)
            out.append((name, paper, module, results))
        return out

    def check(out):
        digests, generated = {}, []
        for name, paper, module, results in out:
            verify_module(module)
            table = {task: [r.method, r.affine_loops, r.total_loops]
                     for task, r in results.items()}
            if paper:
                digests[name] = digest(table)
            else:
                generated.append([name, table])
        # No committed expectation: iterations must agree instead.
        digests["generated"] = digest(generated)
        return digests
    return run, check


CHILD_WORK = {
    "matrix-cold": _work_matrix_cold,
    "matrix-warm": _work_matrix_warm,
    "sweep": _work_sweep,
    "compile": _work_compile,
}


def _expect_matrix_cold(tmp):
    manifest = tmp / "manifest.json"
    _cli(["runs", "record", "--no-cache", "--interp", "reference",
          "--ledger-dir", str(tmp / "ledger"), "--out", str(manifest)])()
    return manifest_digests(json.loads(manifest.read_text()))


def _expect_matrix_warm(tmp):
    stdout = _cli(["all", "--no-cache", "--interp", "reference"])()
    return {"stdout": digest(stdout)}


def _expect_sweep(tmp):
    """Each variant re-profiled by the reference interpreter (no trace
    replay), then scheduled under the ablate configurations."""
    from repro.api import profile
    from repro.evaluation.ablation import ABLATE_CONFIGS, SWEEP_PARAMS
    from repro.evaluation.experiments import relative_metrics, schedule
    from repro.power.frequency import FrequencyPolicy
    from repro.sim.config import MachineConfig
    from repro.workloads import workload_by_name

    build = SWEEP_PARAMS["llc_kb"][1]
    out = {}
    for app in SWEEP_APPS:
        workload = workload_by_name(app)
        for value in SWEEP_VALUES:
            variant = build(MachineConfig(), float(value))
            run = profile(workload, 1, variant, interp="reference")
            configs, baseline = {}, None
            for label, scheme, policy in ABLATE_CONFIGS:
                result = schedule(run, scheme,
                                  FrequencyPolicy.from_name(policy, variant),
                                  variant)
                if baseline is None:
                    baseline = result
                configs[label] = {
                    "summary": result.summary(),
                    "relative": relative_metrics(result, baseline),
                }
            out["%s@%g" % (app, value)] = digest(configs)
    return out


def _expect_compile(tmp):
    """The paper sources through the workload framework's compile."""
    from repro.workloads import ALL_WORKLOADS

    out = {}
    for cls in ALL_WORKLOADS:
        workload = cls()
        compiled = workload.compile()
        out[workload.name] = digest({
            task: [r.method, r.affine_loops, r.total_loops]
            for task, r in compiled.results.items()
        })
    return out


EXPECT_WORK = {
    "matrix-cold": _expect_matrix_cold,
    "matrix-warm": _expect_matrix_warm,
    "sweep": _expect_sweep,
    "compile": _expect_compile,
}


def child_main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    if job["role"] == "expect":
        _import_repro(job)
        result = {"digests": EXPECT_WORK[job["workload"]](Path(job["tmp"]))}
    else:
        sampler = hostspeed.Sampler()
        sampler.start()
        try:
            result = _measured_child(job, sampler)
        finally:
            sampler.stop()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def _import_repro(job) -> None:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import repro
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit("repro imported from %s, not from %s"
                         % (repro.__file__, src))


def _measured_child(job, sampler) -> dict:
    """Set up, then (unless only setting up) run the timed call once.

    Times are in reference seconds (hostspeed.py): CPU seconds, less
    the probes', times the host speed over the same stretch.
    ``setup_s`` runs from the start of this process, ``wall_s`` is the
    timed call; ``cpu_s`` and ``speed`` are the timed call's two
    factors.
    """
    _import_repro(job)
    tracer = None
    if job["role"] == "traced":
        tracer = tracing.Tracer(clock=sampler.clock)
        tracer.install()
    run, check = CHILD_WORK[job["workload"]](job["inputs"], Path(job["tmp"]))
    ready = sampler.clock()
    result = {"setup_s": ready * sampler.split()}
    if job["role"] != "setup":
        output = run()
        result["cpu_s"] = sampler.clock() - ready
        result["speed"] = sampler.split()
        result["wall_s"] = result["cpu_s"] * result["speed"]
        result["rss_mb"] = peak_rss_mb()
        result["wrappers"] = tracing.installed_wrappers()
        result["digests"] = check(output)
        if tracer is not None:
            result.update(
                origin=ready, spans=tracer.spans,
                counters=dict(tracer.counters),
                missing=sorted(tracer.missing),
            )
    return result


# -- parent side --------------------------------------------------------------


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; inclusive quartiles, so a few samples never
    extrapolate past their range."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass
class Tally:
    """What the children of one workload produced during one run."""

    attempted: int = 0
    failed: int = 0
    walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    #: Host speed during each timed call (hostspeed.py).
    speeds: list = field(default_factory=list)
    traced: Optional[dict] = None
    #: Digest of the generated programs' compile results, which every
    #: iteration must reproduce.
    generated: Optional[str] = None


class Runner:
    """Spawns the benchmark's children, one at a time, and checks them.

    ``scratch`` is a directory that the runner owns; every child gets a
    fresh subdirectory, deleted when the child has been read.
    """

    def __init__(self, scratch: Path, expected: dict, seed: int = 0,
                 generated_programs: int = GENERATED_PROGRAMS):
        self.scratch = scratch
        self.expected = expected
        self.seed = seed
        self.generated_programs = generated_programs
        self._children = 0
        home, tmp = scratch / "home", scratch / "tmp"
        home.mkdir()
        tmp.mkdir()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in STRIPPED_ENV}
        self.env.update(PYTHONHASHSEED="0", HOME=str(home), TMPDIR=str(tmp))

    def spawn(self, workload: str, inputs: dict, role: str,
              timeout: Optional[float] = CHILD_TIMEOUT_S) -> dict:
        """Run one child; its result dict, or ``{"error": reason}``."""
        self._children += 1
        tmp = self.scratch / ("child-%d" % self._children)
        tmp.mkdir()
        job = {
            "workload": workload, "inputs": inputs, "role": role,
            "src": str(SRC), "tmp": str(tmp),
            "result": str(tmp / "result.json"),
        }
        (tmp / "job.json").write_text(json.dumps(job))
        command = [sys.executable, str(HERE / "bench_e2e.py"), "_child",
                   str(tmp / "job.json")]
        try:
            with open(tmp / "stderr.txt", "w") as err:
                proc = subprocess.run(
                    command, env=self.env, cwd=tmp, stdin=subprocess.DEVNULL,
                    stdout=err, stderr=err, timeout=timeout,
                )
            if proc.returncode != 0:
                tail = (tmp / "stderr.txt").read_text()[-2000:]
                return {"error": "child exited %d:\n%s"
                                 % (proc.returncode, tail)}
            result = json.loads((tmp / "result.json").read_text())
        except subprocess.TimeoutExpired:
            return {"error": "child timed out after %gs" % timeout}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return result

    def prepare(self, workload: str) -> dict:
        """The workload's inputs, made before its first iteration."""
        if workload == "compile":
            return {"sources": str(self._write_sources())}
        if workload == "matrix-warm":
            warm = self.scratch / "warm-cache"
            inputs = {"warm": str(warm)}
            result = self.spawn(workload, inputs, "fill")
            problem = self.check(workload, result, Tally(), traced=False)
            if problem:
                raise BenchError("filling the warm cache failed: " + problem)
            return inputs
        return {}

    def _write_sources(self) -> Path:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from repro.fuzz.generator import generate_program
        from repro.workloads import ALL_WORKLOADS

        sources = [[cls.name, cls().source(), True] for cls in ALL_WORKLOADS]
        for i in range(self.generated_programs):
            program = generate_program(self.seed * 1000 + i)
            sources.append(["gen%d" % program.seed, program.source, False])
        path = self.scratch / "sources.json"
        path.write_text(json.dumps(sources))
        return path

    def check(self, workload: str, result: dict, tally: Tally,
              traced: bool) -> Optional[str]:
        """Why an iteration failed, or ``None`` when it passed."""
        if "error" in result:
            return result["error"]
        if not traced and result["wrappers"]:
            return "timing wrappers were installed in an untraced child"
        expected = self.expected.get(workload)
        if not expected:
            return "expected.json has no %s entry" % workload
        digests = dict(result["digests"])
        generated = digests.pop("generated", None)
        wrong = sorted(key for key in set(digests) | set(expected)
                       if digests.get(key) != expected.get(key))
        if wrong:
            return "output differs from expected.json: " + ", ".join(wrong)
        if generated is not None:
            if tally.generated is None:
                tally.generated = generated
            elif generated != tally.generated:
                return "generated programs compiled differently than in " \
                       "the first iteration"
        return None

    def iterate(self, workload: str, inputs: dict, tally: Tally,
                role: str = "timed") -> Optional[dict]:
        """One checked iteration; timed ones add to ``tally``'s samples."""
        result = self.spawn(workload, inputs, role)
        tally.attempted += 1
        problem = self.check(workload, result, tally,
                             traced=role == "traced")
        if problem:
            tally.failed += 1
            print("%s: iteration failed: %s" % (workload, problem),
                  file=sys.stderr)
        if "wall_s" not in result:
            return None
        if role == "timed":
            tally.walls.append(result["wall_s"])
            tally.setups.append(result["setup_s"])
            tally.rss.append(result["rss_mb"])
            tally.speeds.append(result["speed"])
        else:
            tally.traced = result
        return result

    def set_up(self, workload: str, inputs: dict, tally: Tally) -> None:
        """One child that sets up, adds to ``setup_s`` and exits."""
        result = self.spawn(workload, inputs, "setup")
        if "error" in result:
            raise BenchError("%s set-up failed: %s"
                             % (workload, result["error"]))
        tally.setups.append(result["setup_s"])


def e2e_metrics(tally: Tally) -> dict:
    samples = {
        "wall_s": tally.walls,
        "setup_s": tally.setups,
        "peak_rss_mb": tally.rss,
        "fail_frac": [tally.failed / tally.attempted],
    }
    out = {}
    for name, unit, bound in E2E_METRICS:
        values = samples[name]
        if not values:
            raise BenchError("no iteration produced %s" % name)
        q1, median, q3 = quartiles(values)
        n = tally.attempted if name == "fail_frac" else len(values)
        out[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                     "n": n, "bound": bound}
    return out


def layer_doc(tally: Tally) -> dict:
    traced = tally.traced
    if traced is None:
        raise BenchError("the traced iteration did not finish")
    # Span times in reference seconds too, like the end-to-end metrics.
    speed = traced["speed"]
    spans = [(span_id, parent, layer, name, start * speed, end * speed)
             for span_id, parent, layer, name, start, end in traced["spans"]]
    values = tracing.layer_metrics(
        spans, traced["counters"], set(traced["missing"]), traced["wall_s"],
        statistics.median(tally.walls),
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.LAYER_METRICS}


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError("no repro sources at %s" % SRC)


def load_expected() -> dict:
    require_sources()
    if not EXPECTED_PATH.is_file():
        raise BenchError("%s is missing; run `bench_e2e.py expect`"
                         % EXPECTED_PATH)
    return json.loads(EXPECTED_PATH.read_text())


@contextlib.contextmanager
def scratch_dir():
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()


def run_one(args) -> int:
    """``--workload``: one workload for ``--seconds``; JSON result line."""
    expected = load_expected()
    name = args.workload
    tally = Tally()
    with scratch_dir() as scratch:
        runner = Runner(scratch, expected, seed=args.seed)
        inputs = runner.prepare(name)
        started = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            runner.set_up(name, inputs, tally)
        # The last iteration may end up to one iteration past --seconds.
        while True:
            runner.iterate(name, inputs, tally)
            if time.perf_counter() - started >= args.seconds:
                break
        if args.trace:
            runner.iterate(name, inputs, tally, role="traced")
        e2e = e2e_metrics(tally)
        if args.trace:
            metrics = layer_doc(tally)
        else:
            metrics = {key: {"value": e2e[key]["value"],
                             "unit": e2e[key]["unit"]}
                       for key in RESULT_LINE_METRICS}
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }))
    return 0


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def trace_path(out: Path) -> Path:
    """``A.json`` -> ``A.trace.json``."""
    return out.with_name(out.name.removesuffix(".json") + ".trace.json")


def run_all(args) -> int:
    """All workloads round-robin, then one traced iteration each."""
    expected = load_expected()
    tallies = {name: Tally() for name in WORKLOADS}
    with scratch_dir() as scratch:
        runner = Runner(scratch, expected, seed=args.seed)
        inputs = {name: runner.prepare(name) for name in WORKLOADS}
        rounds = max(w.iterations for w in WORKLOADS.values())
        for index in range(rounds):
            for name, workload in WORKLOADS.items():
                if index < workload.iterations:
                    runner.iterate(name, inputs[name], tallies[name])
        for name in WORKLOADS:
            runner.iterate(name, inputs[name], tallies[name], role="traced")
        doc = {
            "meta": {
                "commit": _commit(), "nproc": os.cpu_count(),
                "python": platform.python_version(), "seed": args.seed,
                "iterations": {name: w.iterations
                               for name, w in WORKLOADS.items()},
            },
            "workloads": {
                name: {
                    "attempted": tally.attempted, "failed": tally.failed,
                    "metrics": e2e_metrics(tally),
                    # Host speed during the timed calls: seconds on this
                    # host are the metrics' reference seconds over it.
                    "host_speed": dict(zip(("q1", "value", "q3"),
                                           quartiles(tally.speeds))),
                    "layers": layer_doc(tally),
                }
                for name, tally in tallies.items()
            },
        }
    events = []
    for pid, (name, tally) in enumerate(tallies.items(), start=1):
        events += tracing.chrome_events(
            [tuple(span) for span in tally.traced["spans"]], pid,
            "%s#traced" % name, tally.traced["origin"],
        )
    print(render(doc))
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        trace = trace_path(out)
        trace.write_text(json.dumps({"traceEvents": events,
                                     "displayTimeUnit": "ms"}))
        print("wrote %s and %s" % (out, trace), file=sys.stderr)
    failed = any(w["failed"] for w in doc["workloads"].values())
    return 1 if failed else 0


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def render(doc: dict) -> str:
    lines = []
    for name, result in doc["workloads"].items():
        lines.append("## %s (%d attempted, %d failed)"
                     % (name, result["attempted"], result["failed"]))
        for metric, m in result["metrics"].items():
            lines.append("  %-30s %12s %-9s [%s, %s] n=%d bound=+%g%%" % (
                metric, _fmt(m["value"]), m["unit"], _fmt(m["q1"]),
                _fmt(m["q3"]), m["n"], m["bound"] * 100))
        for metric, m in result["layers"].items():
            lines.append("  %-30s %12s %s"
                         % (metric, _fmt(m["value"]), m["unit"]))
    return "\n".join(lines)


# -- compare ------------------------------------------------------------------


def spread(metric: dict) -> float:
    """Interquartile range as a share of the median."""
    width = metric["q3"] - metric["q1"]
    if not width:
        return 0.0
    return width / metric["value"] if metric["value"] else float("inf")


def judge(base: dict, new: dict, bound: float) -> tuple:
    """``(verdict, regressed)`` for one lower-is-better metric.

    The verdict is ``unresolved`` when either side's spread is wider
    than ``bound``: the medians then cannot show a change of that size
    either way, so the row neither passes nor fails.  Otherwise it is
    ``regressed`` when the new median is worse than the base median by
    more than ``bound``, and ``ok`` when it is not.
    """
    if max(spread(base), spread(new)) > bound:
        return "unresolved", False
    regressed = new["value"] > base["value"] * (1.0 + bound)
    return ("regressed" if regressed else "ok"), regressed


def load_result(path: str) -> dict:
    """A results file; a baseline file compares as its first run."""
    doc = json.loads(Path(path).read_text())
    return doc["runs"][0] if "runs" in doc else doc


def compare(base_path: str, new_path: str) -> int:
    base, new = load_result(base_path), load_result(new_path)
    lines = [
        "| workload | metric | A median [q1, q3] | B median [q1, q3] "
        "| bound | verdict |",
        "|---|---|---|---|---|---|",
    ]
    worse = False
    for name in WORKLOADS:
        for metric, unit, bound in E2E_METRICS:
            try:
                a = base["workloads"][name]["metrics"][metric]
                b = new["workloads"][name]["metrics"][metric]
            except KeyError:
                lines.append("| %s | %s | | | +%g%% | missing |"
                             % (name, metric, bound * 100))
                worse = True
                continue
            verdict, regressed = judge(a, b, bound)
            worse = worse or regressed
            lines.append("| %s | %s | %s %s [%s, %s] | %s %s [%s, %s] "
                         "| +%g%% | %s |" % (
                             name, metric, _fmt(a["value"]), unit,
                             _fmt(a["q1"]), _fmt(a["q3"]), _fmt(b["value"]),
                             unit, _fmt(b["q1"]), _fmt(b["q3"]),
                             bound * 100, verdict))
    print("\n".join(lines))
    return 1 if worse else 0


# -- expect -------------------------------------------------------------------


def expect() -> int:
    """Regenerate ``expected.json`` from the reference paths."""
    require_sources()
    expected = {}
    with scratch_dir() as scratch:
        runner = Runner(scratch, {})
        for name in WORKLOADS:
            print("expect: %s..." % name, file=sys.stderr)
            # The reference paths are slow (the sweep takes minutes).
            result = runner.spawn(name, {}, "expect", timeout=None)
            if "error" in result:
                raise BenchError("%s: %s" % (name, result["error"]))
            expected[name] = result["digests"]
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True)
                             + "\n")
    print("wrote %s" % EXPECTED_PATH, file=sys.stderr)
    return 0


# -- command line -------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_e2e.py",
        description="End-to-end benchmark (subcommands: compare A B, "
                    "expect).",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds and print one "
                             "JSON result line")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (affects only compile)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long a --workload run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics "
                             "from one extra traced iteration")
    parser.add_argument("--out", metavar="PATH",
                        help="without --workload: write results JSON here "
                             "and the trace to <PATH>.trace.json")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["_child"]:
            return child_main(argv[1])
        if argv[:1] == ["compare"]:
            if len(argv) != 3:
                print("usage: bench_e2e.py compare A.json B.json",
                      file=sys.stderr)
                return 2
            return compare(argv[1], argv[2])
        if argv[:1] == ["expect"]:
            return expect()
        args = _parser().parse_args(argv)
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        print("bench_e2e: %s" % exc, file=sys.stderr)
        return 2


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # child, and scratch_dir deletes the run's directory.
    signal.signal(signal.SIGTERM, _terminated)
    raise SystemExit(main())
