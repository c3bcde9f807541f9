"""Command-line entry: ``python -m repro.evaluation <experiment>``.

Experiments: ``table1``, ``figure1``, ``figure2``, ``figure3``,
``figure4``, ``headline``, ``all``, ``trace <app>`` (fully-observed
single-workload run writing a Chrome trace, a JSONL event log, and an
explain report), ``tune <app>`` (auto-tune the workload's operating
points and write a markdown + JSON tuning report), ``ablate <app>
--vary PARAM --values LIST`` (machine-config sweep: record the scheme
matrix once, re-simulate every variant by replaying the recorded
traces through a fresh cache hierarchy — no re-interpretation),
``machines <app...> --machines a,b,c`` (cross-machine comparison:
record each workload once, replay it under every registered
machine model — homogeneous or big.LITTLE — and tabulate
time/energy/EDP per scheme × machine; ``--manifest-out`` writes one
machine's column as a run-ledger manifest for ``runs compare``),
``cache {stats,clear}`` (inspect / empty the persistent profile cache),
``fuzz {run,replay,reduce}`` (differential fuzzing: generate seeded
random programs through every oracle, replay the checked-in regression
corpus, or delta-debug a failing program to a minimal reproducer),
and ``runs {record,list,show,compare}`` — the persistent run ledger:
``record`` profiles workloads and appends a JSON manifest (schedule
summaries, relative metrics, energy attribution, engine telemetry)
under ``<cache root>/runs/``; ``compare A B`` renders a markdown
regression diff of two manifests (time/energy/EDP per workload ×
configuration, ``--threshold`` percent) and exits nonzero on
regression, which is how CI gates against a committed baseline.

The experiment subcommands share one flag set (argparse parent
parsers):

* ``--scale N``     — workload size multiplier (default 1);
* ``--jobs N``      — profile workloads in N worker processes;
* ``--no-cache``    — recompute instead of consulting the profile cache;
* ``--cache-dir D`` — cache root (default ``~/.cache/repro-dae`` or
  ``$REPRO_CACHE_DIR``);
* ``--trace PATH`` / ``--events PATH`` — dump the run's structured-event
  log as a Chrome trace / JSONL;
* ``--interp {replay,reference}`` — the profiling interpreter (default
  ``replay``; both produce byte-identical profiles).

``tune`` takes all but ``--jobs`` (it profiles one workload, and the
engine fans out only over several); ``runs record`` all but
``--trace`` / ``--events``; ``trace`` only ``--scale``, ``--trace``
and ``--events``; ``ablate`` and ``machines`` only ``--scale``.
``trace`` additionally takes ``--out PREFIX`` for its artifact files;
``tune`` adds ``--out PREFIX``, ``--objective`` and ``--strategy``.
"""

from __future__ import annotations

import argparse
import sys

from .. import obs
from ..engine import ExperimentSpec, ProfileCache, run_experiment
from ..interp import INTERP_CHOICES
from ..sim.config import MachineConfig, MachineConfigError
from ..tuning import STRATEGIES, tune_workload
from ..workloads import ALL_WORKLOADS, workload_by_name
from . import (
    FIGURE4_WORKLOADS,
    export_trace,
    figure1_demo,
    figure2_demo,
    figure3_rows,
    figure4_series,
    headline_numbers,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_headline,
    render_table1,
    table1_rows,
    trace_workload,
)
from .ablation import SWEEP_PARAMS, ablate_workload, render_ablation_report
from .tuning import export_tuning, render_tuning_report

#: Experiments needing the full (all-workload) profiling matrix.
_FULL_RUN_EXPERIMENTS = {"table1", "figure3", "headline", "all"}


def _build_parser() -> argparse.ArgumentParser:
    # Parent parsers; argparse merges their same-titled groups.
    scale_flag = argparse.ArgumentParser(add_help=False)
    scale_flag.add_argument_group("shared options").add_argument(
        "--scale", type=int, default=1,
        help="workload size multiplier (default 1)",
    )
    jobs_flag = argparse.ArgumentParser(add_help=False)
    jobs_flag.add_argument_group("shared options").add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="profile workloads in N worker processes (default 1 = serial)",
    )
    cache_flags = argparse.ArgumentParser(add_help=False)
    group = cache_flags.add_argument_group("shared options")
    group.add_argument(
        "--no-cache", action="store_true",
        help="recompute profiles instead of using the persistent cache",
    )
    group.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="profile cache root (default ~/.cache/repro-dae "
             "or $REPRO_CACHE_DIR)",
    )
    log_flags = argparse.ArgumentParser(add_help=False)
    group = log_flags.add_argument_group("shared options")
    group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also write the run's event log as Chrome trace JSON",
    )
    group.add_argument(
        "--events", metavar="PATH", default=None,
        help="also write the run's event log as JSONL",
    )
    interp_flag = argparse.ArgumentParser(add_help=False)
    interp_flag.add_argument_group("shared options").add_argument(
        "--interp", choices=INTERP_CHOICES, default=None,
        help="profiling interpreter (default 'replay'; both produce "
             "byte-identical profiles)",
    )
    experiment_flags = [scale_flag, jobs_flag, cache_flags, log_flags,
                        interp_flag]

    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in ("table1", "figure1", "figure2", "figure3", "figure4",
                 "headline", "all"):
        sub.add_parser(
            name, parents=experiment_flags,
            help="regenerate %s" % name,
        )
    trace = sub.add_parser(
        "trace", parents=[scale_flag, log_flags],
        help="fully-observed single-workload run",
    )
    trace.add_argument(
        "app", nargs="?", default=None,
        help="workload name (e.g. 'cholesky')",
    )
    trace.add_argument(
        "--out", metavar="PREFIX", default=None,
        help="artifact path prefix (default: the app name)",
    )
    tune = sub.add_parser(
        "tune", parents=[scale_flag, cache_flags, log_flags, interp_flag],
        help="auto-tune a workload's operating points",
    )
    tune.add_argument(
        "app", nargs="?", default=None,
        help="workload name (e.g. 'cholesky')",
    )
    tune.add_argument(
        "--objective", metavar="SPEC", default="edp",
        help="tuning objective: edp, ed2p, energy, delay, "
             "energy-under-deadline@<s>, delay-under-power-cap@<w> "
             "(default edp)",
    )
    tune.add_argument(
        "--strategy", choices=("all",) + STRATEGIES, default="all",
        help="search strategy (default: all)",
    )
    tune.add_argument(
        "--out", metavar="PREFIX", default=None,
        help="artifact path prefix (default: the app name)",
    )
    tune.add_argument(
        "--machine", metavar="NAME", default=None,
        help="tune on a registered machine model; a heterogeneous one "
             "(e.g. biglittle) searches placements × per-type points",
    )
    ablate = sub.add_parser(
        "ablate", parents=[scale_flag],
        help="machine-config sweep re-simulated from recorded traces",
    )
    ablate.add_argument(
        "app", nargs="?", default=None,
        help="workload name (e.g. 'cholesky')",
    )
    ablate.add_argument(
        "--vary", metavar="PARAM", default=None,
        help="machine parameter to sweep, one of: %s"
             % ", ".join(sorted(SWEEP_PARAMS)),
    )
    ablate.add_argument(
        "--values", metavar="LIST", default=None,
        help="comma-separated parameter values (e.g. '40,65,120')",
    )
    ablate.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report as JSON to PATH",
    )
    machines = sub.add_parser(
        "machines", parents=[scale_flag],
        help="compare machine models from one recorded trace per workload",
    )
    machines.add_argument(
        "apps", nargs="*", metavar="APP",
        help="workload names (default: all seven)",
    )
    machines.add_argument(
        "--machines", metavar="LIST", default=None, dest="machine_list",
        help="comma-separated machine names (default: every registered "
             "machine)",
    )
    machines.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the full report as JSON to PATH",
    )
    machines.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write one machine's column as a run-ledger manifest JSON "
             "(for 'runs compare'); see --manifest-machine",
    )
    machines.add_argument(
        "--manifest-machine", metavar="NAME", default="sandybridge",
        help="which machine's column --manifest-out exports "
             "(default sandybridge)",
    )
    serve = sub.add_parser(
        "serve", help="run the long-lived evaluation service daemon",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="unix socket to listen on (default $REPRO_SERVICE_SOCKET "
             "or <cache root>/service.sock)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission-control queue bound (default 64); submissions "
             "beyond it get a structured 'overloaded' rejection",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=900.0, metavar="S",
        help="per-job wall-clock budget in seconds (default 900)",
    )
    serve.add_argument(
        "--engine-jobs", type=int, default=2, metavar="N",
        help="width of the reusable engine process pool (default 2)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="profile cache root handed to every job",
    )
    serve.add_argument(
        "--no-ledger", action="store_true",
        help="do not record completed jobs into the run ledger",
    )
    serve.add_argument(
        "--ledger-dir", metavar="DIR", default=None,
        help="run-ledger root (default <cache root>/runs)",
    )
    serve.add_argument(
        "--request-log", metavar="PATH", default=None,
        help="append one JSONL line per request to PATH",
    )
    submit = sub.add_parser(
        "submit", help="submit a job to a running evaluation service",
    )
    submit.add_argument(
        "workloads", nargs="*", metavar="APP",
        help="workload names (default: all seven)",
    )
    submit.add_argument(
        "--socket", metavar="PATH", default=None,
        help="service socket (default $REPRO_SERVICE_SOCKET "
             "or <cache root>/service.sock)",
    )
    submit.add_argument(
        "--scale", type=int, default=1,
        help="workload size multiplier (default 1)",
    )
    submit.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="engine process-pool width for a profiling job (default 1; "
             "a --tune job ignores it)",
    )
    submit.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="queue priority; higher runs first (default 0)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="max seconds to wait for the result (default: no limit)",
    )
    submit.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the raw result JSON to PATH",
    )
    submit.add_argument(
        "--tune", action="store_true",
        help="submit a tuning job instead of a profiling job "
             "(takes exactly one APP)",
    )
    submit.add_argument(
        "--objective", metavar="SPEC", default="edp",
        help="tuning objective for --tune (default edp)",
    )
    submit.add_argument(
        "--strategy", default="all",
        help="tuning search strategy for --tune (default all)",
    )
    status = sub.add_parser(
        "status", help="query a running service (a job, or the service)",
    )
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job id; omitted: print service-wide stats",
    )
    status.add_argument(
        "--socket", metavar="PATH", default=None,
        help="service socket (default $REPRO_SERVICE_SOCKET "
             "or <cache root>/service.sock)",
    )
    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent profile cache",
    )
    cache.add_argument("verb", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="profile cache root (default ~/.cache/repro-dae "
             "or $REPRO_CACHE_DIR)",
    )

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the DAE pipeline",
    )
    fuzz_sub = fuzz.add_subparsers(dest="verb", required=True)
    fuzz_run_p = fuzz_sub.add_parser(
        "run", help="generate programs and run every oracle on each",
    )
    fuzz_run_p.add_argument(
        "--seed", type=int, default=0,
        help="first generator seed (default 0)",
    )
    fuzz_run_p.add_argument(
        "--count", type=int, default=200, metavar="N",
        help="number of programs (seeds seed..seed+N-1; default 200)",
    )
    fuzz_run_p.add_argument(
        "--pool-sample", type=int, default=None, metavar="N",
        help="programs covered by the serial-vs-pooled engine oracle "
             "(default 6)",
    )
    fuzz_run_p.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report as JSON to PATH",
    )
    fuzz_run_p.add_argument(
        "--save-failures", metavar="DIR", default=None,
        help="save every violating program as a corpus file under DIR",
    )
    fuzz_replay_p = fuzz_sub.add_parser(
        "replay", help="replay the regression corpus through all oracles",
    )
    fuzz_replay_p.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="corpus directory (default tests/fuzz/corpus, relative to "
             "the working directory)",
    )
    fuzz_reduce_p = fuzz_sub.add_parser(
        "reduce", help="delta-debug a failing program to a minimal "
                       "reproducer",
    )
    fuzz_reduce_p.add_argument(
        "--seed", type=int, default=None,
        help="generator seed (with --inject)",
    )
    fuzz_reduce_p.add_argument(
        "--inject", action="store_true",
        help="inject a synthetic oracle failure into the seed's program "
             "and reduce against it (self-test mode)",
    )
    fuzz_reduce_p.add_argument(
        "--corpus-file", metavar="PATH", default=None,
        help="reduce a real failing corpus entry instead",
    )
    fuzz_reduce_p.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the reduced reproducer as a corpus file to PATH",
    )

    ledger_flags = argparse.ArgumentParser(add_help=False)
    ledger_flags.add_argument(
        "--ledger-dir", metavar="DIR", default=None,
        help="run-ledger root (default <cache root>/runs)",
    )
    runs = sub.add_parser(
        "runs", help="record, inspect and diff run-ledger manifests",
    )
    runs_sub = runs.add_subparsers(dest="verb", required=True)
    runs_record = runs_sub.add_parser(
        "record", parents=[scale_flag, jobs_flag, cache_flags, interp_flag,
                           ledger_flags],
        help="profile workloads and append a run manifest to the ledger",
    )
    runs_record.add_argument(
        "workloads", nargs="*", metavar="APP",
        help="workload names (default: all seven)",
    )
    runs_record.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the manifest JSON to PATH",
    )
    runs_sub.add_parser(
        "list", parents=[ledger_flags],
        help="list recorded runs, oldest first",
    )
    runs_show = runs_sub.add_parser(
        "show", parents=[ledger_flags],
        help="print one manifest (run id, unique prefix, 'latest', or path)",
    )
    runs_show.add_argument("ref", help="run id / prefix / 'latest' / path")
    runs_compare = runs_sub.add_parser(
        "compare", parents=[ledger_flags],
        help="diff two manifests; exit 1 on regression",
    )
    runs_compare.add_argument("base", help="baseline run ref (or file path)")
    runs_compare.add_argument("new", help="candidate run ref (or file path)")
    runs_compare.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="regression threshold in percent (default 5.0)",
    )
    runs_compare.add_argument(
        "--metrics", default="time,energy,edp", metavar="LIST",
        help="comma-separated subset of time,energy,edp (default: all)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "cache":
        return _run_cache(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "submit":
        return _run_submit(args, parser)
    if args.experiment == "status":
        return _run_status(args, parser)
    if args.experiment == "runs":
        return _run_runs(args, parser)
    if args.experiment == "fuzz":
        return _run_fuzz(args, parser)
    if args.experiment == "trace":
        return _run_trace(args, parser)
    if args.experiment == "tune":
        return _run_tune(args, parser)
    if args.experiment == "ablate":
        return _run_ablate(args, parser)
    if args.experiment == "machines":
        return _run_machines(args, parser)

    config = MachineConfig()
    sections = []

    capture = obs.Collector(enabled=True) if (
        args.trace or args.events
    ) else None
    with obs.collecting(capture) if capture is not None else _NullContext():
        runs = None
        if args.experiment in _FULL_RUN_EXPERIMENTS:
            print("profiling all workloads (scale %d, jobs %d)..."
                  % (args.scale, args.jobs), file=sys.stderr)
            runs = run_experiment(_spec_from_args(args, workloads=()))
            _report_engine(runs, file=sys.stderr)

        if args.experiment in ("table1", "all"):
            sections.append(render_table1(table1_rows(runs, config)))
        if args.experiment in ("figure1", "all"):
            sections.append(render_figure1(figure1_demo()))
        if args.experiment in ("figure2", "all"):
            sections.append(render_figure2(figure2_demo()))
        if args.experiment in ("figure3", "all"):
            sections.append(render_figure3(figure3_rows(runs, config)))
        if args.experiment in ("figure4", "all"):
            if runs is None:
                runs = run_experiment(
                    _spec_from_args(args, workloads=FIGURE4_WORKLOADS)
                )
                _report_engine(runs, file=sys.stderr)
            for name in FIGURE4_WORKLOADS:
                sections.append(
                    render_figure4(name, figure4_series(runs[name], config))
                )
        if args.experiment in ("headline", "all"):
            sections.append(render_headline(headline_numbers(runs, config)))

    _export_event_log(capture, args)
    print("\n\n".join(sections))
    return 0


def _spec_from_args(args, workloads=()) -> ExperimentSpec:
    return ExperimentSpec(
        workloads=tuple(workloads),
        scale=args.scale,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        interp=args.interp,
    )


def _report_engine(result, file) -> None:
    stats = result.stats
    print(
        "engine: %d cached, %d profiled (%d pooled, %d serial) in %.1fs"
        % (stats.cache_hits, stats.jobs_completed, stats.parallel_jobs,
           stats.serial_jobs, stats.elapsed_s),
        file=file,
    )


def _run_serve(args) -> int:
    import asyncio
    import signal

    from ..service.server import EvaluationService, ServiceConfig

    config = ServiceConfig(
        socket_path=args.socket,
        workers=args.workers,
        max_queue=args.max_queue,
        job_timeout_s=args.job_timeout,
        engine_workers=args.engine_jobs,
        cache_dir=args.cache_dir,
        ledger=not args.no_ledger,
        ledger_dir=args.ledger_dir,
        request_log=args.request_log,
    )
    service = EvaluationService(config)

    async def body():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.request_stop)
            except NotImplementedError:
                pass
        path = await service.start()
        print("serving on %s (%d workers, queue %d)"
              % (path, config.workers, config.max_queue), file=sys.stderr)
        try:
            await service._stop_event.wait()
        finally:
            await service.stop()
            print("service stopped", file=sys.stderr)

    asyncio.run(body())
    return 0


def _run_submit(args, parser) -> int:
    import json

    from ..service.client import ServiceClient, ServiceError

    for name in args.workloads:
        try:
            workload_by_name(name)
        except KeyError:
            parser.error(
                "unknown workload %r; choose from: %s"
                % (name, ", ".join(sorted(w.name for w in ALL_WORKLOADS)))
            )
    client = ServiceClient(args.socket)
    try:
        if args.tune:
            if len(args.workloads) != 1:
                parser.error("--tune takes exactly one workload name")
            ack = client.submit_tune({
                "workload": args.workloads[0],
                "objective": args.objective,
                "strategy": args.strategy,
                "scale": args.scale,
            }, priority=args.priority)
        else:
            ack = client.submit({
                "workloads": list(args.workloads),
                "scale": args.scale,
                "jobs": args.jobs,
            }, priority=args.priority)
        print("job %s: %s%s" % (
            ack["id"], ack["state"],
            " (coalesced onto an identical in-flight job)"
            if ack.get("coalesced") else "",
        ), file=sys.stderr)
        if args.no_wait:
            print(ack["id"])
            return 0
        result = client.result(ack["id"], timeout_s=args.timeout)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote %s" % args.out, file=sys.stderr)
        if result.get("kind") == "experiment":
            for name, payload in sorted(result["workloads"].items()):
                print("%-12s %d tasks, %d schemes" % (
                    name, payload["task_count"], len(payload["profiles"]),
                ))
        else:
            print(json.dumps(
                {k: result[k] for k in ("kind", "workload") if k in result},
                sort_keys=True,
            ))
        return 0
    except ServiceError as exc:
        print("service error [%s]: %s" % (exc.code, exc.detail),
              file=sys.stderr)
        return 1
    finally:
        client.close()


def _run_status(args, parser) -> int:
    import json

    from ..service.client import ServiceClient, ServiceError

    client = ServiceClient(args.socket)
    try:
        if args.job_id:
            doc = client.status(args.job_id)
        else:
            doc = client.stats()
        doc.pop("ok", None)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    except ServiceError as exc:
        print("service error [%s]: %s" % (exc.code, exc.detail),
              file=sys.stderr)
        return 1
    finally:
        client.close()


def _run_cache(args) -> int:
    cache = ProfileCache(args.cache_dir)
    if args.verb == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print("removed %d cache entr%s from %s"
              % (removed, "y" if removed == 1 else "ies", cache.root))
    return 0


def _run_runs(args, parser) -> int:
    import json

    from ..obs.ledger import RunLedger, compare_runs, render_comparison
    from .experiments import record_run

    ledger = RunLedger(args.ledger_dir)
    if args.verb == "list":
        entries = ledger.entries()
        if not entries:
            print("no runs recorded in %s" % ledger.root)
            return 0
        print("%-40s %-7s %-20s %s" % ("run id", "kind", "created",
                                       "workloads"))
        for entry in entries:
            print("%-40s %-7s %-20s %s" % (
                entry.get("run_id", "?"), entry.get("kind", "?"),
                entry.get("created", "?"),
                ",".join(entry.get("workloads", [])),
            ))
        return 0
    if args.verb == "show":
        try:
            manifest = ledger.load(args.ref)
        except (FileNotFoundError, ValueError) as exc:
            parser.error(str(exc))
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
        return 0
    if args.verb == "compare":
        try:
            base = ledger.load(args.base)
            new = ledger.load(args.new)
        except (FileNotFoundError, ValueError) as exc:
            parser.error(str(exc))
        metrics = tuple(
            m.strip() for m in args.metrics.split(",") if m.strip()
        )
        unknown = set(metrics) - {"time", "energy", "edp"}
        if unknown:
            parser.error("unknown metrics: %s" % ", ".join(sorted(unknown)))
        comparison = compare_runs(
            base, new, threshold_pct=args.threshold, metrics=metrics,
        )
        print(render_comparison(comparison))
        return 0 if comparison.ok else 1
    # record
    for name in args.workloads:
        try:
            workload_by_name(name)
        except KeyError:
            parser.error(
                "unknown workload %r; choose from: %s"
                % (name, ", ".join(sorted(w.name for w in ALL_WORKLOADS)))
            )
    print("profiling %s (scale %d, jobs %d)..."
          % (",".join(args.workloads) or "all workloads",
             args.scale, args.jobs),
          file=sys.stderr)
    result = run_experiment(
        _spec_from_args(args, workloads=tuple(args.workloads))
    )
    _report_engine(result, file=sys.stderr)
    manifest, path = record_run(result, ledger=ledger)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out, file=sys.stderr)
    print("recorded %s -> %s" % (manifest.run_id, path))
    return 0


def _run_fuzz(args, parser) -> int:
    import json

    from .fuzzing import (
        DEFAULT_CORPUS_DIR,
        DEFAULT_POOL_SAMPLE,
        fuzz_reduce,
        fuzz_replay,
        fuzz_run,
        render_fuzz_report,
        render_reduce_report,
        render_replay_report,
    )

    if args.verb == "run":
        pool_sample = (DEFAULT_POOL_SAMPLE if args.pool_sample is None
                       else args.pool_sample)
        print("fuzzing %d programs from seed %d..."
              % (args.count, args.seed), file=sys.stderr)
        report = fuzz_run(
            args.seed, args.count, pool_sample=pool_sample,
            save_failures=args.save_failures,
        )
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote %s" % args.out, file=sys.stderr)
        print(render_fuzz_report(report))
        return 1 if report["violations"] else 0
    if args.verb == "replay":
        corpus = args.corpus or DEFAULT_CORPUS_DIR
        report = fuzz_replay(corpus)
        if not report["entries"]:
            # A replay of nothing would pass without checking anything.
            parser.error("no corpus entries under %s" % corpus)
        print(render_replay_report(report))
        return 1 if report["violations"] else 0
    # reduce
    if not args.inject and not args.corpus_file:
        parser.error("fuzz reduce needs --inject (with --seed) "
                     "or --corpus-file PATH")
    if args.inject and args.seed is None:
        parser.error("--inject needs --seed")
    try:
        report = fuzz_reduce(
            seed=args.seed, corpus_file=args.corpus_file,
            inject=args.inject, out=args.out,
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(render_reduce_report(report))
    if args.out:
        print("wrote %s" % args.out, file=sys.stderr)
    return 0


def _run_trace(args, parser) -> int:
    if args.app is None:
        parser.error(
            "trace needs a workload name, one of: %s"
            % ", ".join(sorted(w.name for w in ALL_WORKLOADS))
        )
    try:
        workload_by_name(args.app)
    except KeyError:
        parser.error(
            "unknown workload %r; choose from: %s"
            % (args.app, ", ".join(sorted(w.name for w in ALL_WORKLOADS)))
        )
    print("tracing %s (scale %d)..." % (args.app, args.scale),
          file=sys.stderr)
    artifacts = trace_workload(args.app, scale=args.scale)
    export_trace(artifacts, out_prefix=args.out)
    # The generic flags override/augment the default artifact names.
    _export_event_log(artifacts.collector, args)
    with open(artifacts.report_path) as handle:
        print(handle.read(), end="")
    print("wrote %s" % artifacts.trace_path, file=sys.stderr)
    print("wrote %s" % artifacts.events_path, file=sys.stderr)
    print("wrote %s" % artifacts.report_path, file=sys.stderr)
    return 0


def _run_tune(args, parser) -> int:
    if args.app is None:
        parser.error(
            "tune needs a workload name, one of: %s"
            % ", ".join(sorted(w.name for w in ALL_WORKLOADS))
        )
    try:
        workload_by_name(args.app)
    except KeyError:
        parser.error(
            "unknown workload %r; choose from: %s"
            % (args.app, ", ".join(sorted(w.name for w in ALL_WORKLOADS)))
        )
    if args.machine is not None:
        from ..machines import MachineModel
        registered = MachineModel.registered_names()
        if args.machine.lower() not in registered:
            parser.error(
                "unknown machine %r; registered: %s"
                % (args.machine, ", ".join(registered))
            )
    print("tuning %s (objective %s, strategy %s, scale %d)..."
          % (args.app, args.objective, args.strategy, args.scale),
          file=sys.stderr)
    capture = obs.Collector(enabled=True) if (
        args.trace or args.events
    ) else None
    with obs.collecting(capture) if capture is not None else _NullContext():
        result = tune_workload(
            args.app, objective=args.objective, strategy=args.strategy,
            scale=args.scale, cache=not args.no_cache,
            cache_dir=args.cache_dir, interp=args.interp,
            machine=args.machine,
        )
    stats = result.stats
    print(
        "tuning: %d candidates (%d scheduled; %d cached)"
        % (stats.requests, stats.schedule_evals, stats.cache_hits),
        file=sys.stderr,
    )
    artifacts = export_tuning(result, out_prefix=args.out)
    _export_event_log(capture, args)
    print(render_tuning_report(result))
    print("wrote %s" % artifacts.report_path, file=sys.stderr)
    print("wrote %s" % artifacts.json_path, file=sys.stderr)
    return 0


def _run_ablate(args, parser) -> int:
    import json

    if args.app is None:
        parser.error(
            "ablate needs a workload name, one of: %s"
            % ", ".join(sorted(w.name for w in ALL_WORKLOADS))
        )
    try:
        workload = workload_by_name(args.app)
    except KeyError:
        parser.error(
            "unknown workload %r; choose from: %s"
            % (args.app, ", ".join(sorted(w.name for w in ALL_WORKLOADS)))
        )
    if not args.vary or args.vary not in SWEEP_PARAMS:
        parser.error(
            "ablate needs --vary PARAM, one of: %s"
            % ", ".join(sorted(SWEEP_PARAMS))
        )
    if not args.values:
        parser.error("ablate needs --values LIST (e.g. '40,65,120')")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        parser.error("--values must be comma-separated numbers")
    if not values:
        parser.error("--values must name at least one value")
    print("ablating %s over %s=%s (scale %d)..."
          % (args.app, args.vary, args.values, args.scale), file=sys.stderr)
    try:
        report = ablate_workload(
            workload, args.vary, values, scale=args.scale,
        )
    except MachineConfigError as exc:
        parser.error(str(exc))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out, file=sys.stderr)
    print(render_ablation_report(report))
    return 0


def _run_machines(args, parser) -> int:
    import json

    from ..machines import MachineModel
    from .machines import (
        compare_machines,
        machines_manifest,
        render_machines_report,
    )

    workloads = []
    for name in args.apps or sorted(w.name for w in ALL_WORKLOADS):
        try:
            workloads.append(workload_by_name(name))
        except KeyError:
            parser.error(
                "unknown workload %r; choose from: %s"
                % (name, ", ".join(sorted(w.name for w in ALL_WORKLOADS)))
            )
    registered = MachineModel.registered_names()
    if args.machine_list:
        names = [n.strip().lower()
                 for n in args.machine_list.split(",") if n.strip()]
        unknown = [n for n in names if n not in registered]
        if unknown:
            parser.error(
                "unknown machine(s) %s; registered: %s"
                % (", ".join(sorted(unknown)), ", ".join(registered))
            )
    else:
        names = list(registered)
    if args.manifest_out and args.manifest_machine.lower() not in names:
        parser.error(
            "--manifest-machine %r is not among the compared machines (%s)"
            % (args.manifest_machine, ", ".join(names))
        )
    print("comparing %s on %s (scale %d)..."
          % (",".join(w.name for w in workloads), ",".join(names),
             args.scale),
          file=sys.stderr)
    report = compare_machines(workloads, names, scale=args.scale)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out, file=sys.stderr)
    if args.manifest_out:
        manifest = machines_manifest(report, args.manifest_machine)
        with open(args.manifest_out, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.manifest_out, file=sys.stderr)
    print(render_machines_report(report))
    return 0


def _export_event_log(collector, args) -> None:
    if collector is None:
        return
    if args.trace:
        obs.write_chrome_trace(args.trace, collector.events())
        print("wrote %s" % args.trace, file=sys.stderr)
    if args.events:
        obs.write_jsonl(args.events, collector.events())
        print("wrote %s" % args.events, file=sys.stderr)


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


if __name__ == "__main__":
    raise SystemExit(main())
