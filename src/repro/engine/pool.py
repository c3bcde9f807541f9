"""The evaluation engine: cache probe + process-pool fan-out.

:func:`run_experiment` is the single entry point the evaluation layer
calls.  For each workload in the spec it either

1. serves the profiling product from the persistent cache
   (:mod:`repro.engine.cache`),
2. computes it in a ``ProcessPoolExecutor`` worker (``jobs > 1``), or
3. computes it serially in-process.

Pool execution is strictly best-effort: results are collected in spec
order (deterministic regardless of completion order), each job gets a
wall-clock timeout and a single retry, and *any* pool-level failure —
an unpicklable payload, a crashed or missing worker, a sandbox that
forbids ``fork`` — degrades that job (or the whole batch) to the serial
path, which is the same :func:`~repro.engine.products.profile_workload`
call the workers run.  Parallel and serial results are therefore
interchangeable.

The engine reports into :mod:`repro.obs`: an ``engine.run`` span wraps
the batch, per-job instants show the fan-out, and ``engine.*`` counters
mirror :class:`~repro.engine.spec.EngineStats` (the cache-hit counter is
how a warm run proves it skipped all profiling).  Independently of the
event collector (which is off by default), every run also updates the
always-on metrics registry: an ``engine.pool.job_ms`` histogram of
per-job wall clock (dispatch to completion, any execution path) and an
``engine.cache.hit_rate`` gauge — both land in run-ledger manifests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor, Executor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Optional

from ..obs.events import get_collector
from ..obs.metrics import get_registry
from ..workloads.base import Workload
from .cache import ProfileCache, cache_key, key_material
from .jobs import CancelToken
from .products import (
    WorkloadRun,
    profile_workload,
    run_from_payload,
    run_to_payload,
)
from .spec import EngineResult, EngineStats, ExperimentSpec


class EnginePool:
    """A reusable process-pool lifecycle for long-lived callers.

    ``run_experiment`` creates and destroys its executor per call —
    right for one-shot CLI runs, wasteful for a service evaluating a
    stream of specs.  An :class:`EnginePool` owns one
    ``ProcessPoolExecutor`` across many calls (warm workers, loaded
    modules) and recreates it lazily after breakage: a timeout, a
    cancellation or a dead worker process::

        pool = EnginePool(max_workers=4)
        run_experiment(spec_a, pool=pool)   # creates the executor
        run_experiment(spec_b, pool=pool)   # reuses warm workers
        pool.shutdown()

    Thread-safe: the service's dispatcher threads share one instance.
    """

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._executor: Optional[Executor] = None
        self._lock = threading.Lock()
        self.created = 0    # executors ever created
        self.broken = 0     # executors discarded after breakage

    def executor(self) -> Executor:
        """The live executor, creating (or recreating) it on demand."""
        with self._lock:
            if self._executor is None:
                self._executor = _new_executor(self.max_workers)
                self.created += 1
            return self._executor

    @property
    def healthy(self) -> bool:
        """True while a live executor exists (never broken or not yet
        created-and-discarded)."""
        with self._lock:
            return self._executor is not None

    def mark_broken(self, executor: Optional[Executor] = None) -> None:
        """Discard the current executor (stuck or crashed workers);
        the next :meth:`executor` call starts a fresh one.  With
        ``executor``, discard only if it is still the current one, so
        a run that saw an old executor break cannot discard the fresh
        one another thread already started."""
        with self._lock:
            if self._executor is None:
                return
            if executor is not None and executor is not self._executor:
                return
            self.broken += 1
            executor, self._executor = self._executor, None
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


def _new_executor(max_workers: int) -> Executor:
    """A fresh process pool.  Imported here, not at module level, so
    that a serial run never loads :mod:`multiprocessing`."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _pool_worker(payload: tuple) -> dict:
    """Top-level (picklable) worker: profile one workload, return the
    slim JSON-able product."""
    workload, scale, machine, options, scheme_values, interp = payload
    run = profile_workload(
        workload, scale, machine, options=options, schemes=scheme_values,
        interp=interp,
    )
    return run_to_payload(run)


@dataclass
class _Job:
    """One pending profiling job (cache already probed and missed)."""

    workload: Workload
    key: Optional[str] = None        # None -> uncacheable
    material: Optional[dict] = None
    future: object = None
    run: Optional[WorkloadRun] = None
    source: str = "serial"           # how it was ultimately computed
    payload_cache: dict = field(default_factory=dict)
    started: float = 0.0             # perf_counter at dispatch

    def finish(self) -> None:
        """Record this job's dispatch-to-completion wall clock."""
        get_registry().histogram(
            "engine.pool.job_ms",
            "per-job wall clock, dispatch to completion",
        ).observe((time.perf_counter() - self.started) * 1e3)

    def payload_args(self, spec: ExperimentSpec) -> tuple:
        return (
            self.workload, spec.scale, spec.machine, spec.options,
            tuple(s.value for s in spec.schemes), spec.interp,
        )


def run_experiment(spec: ExperimentSpec, *,
                   pool: Optional[EnginePool] = None,
                   cancel: Optional[CancelToken] = None) -> EngineResult:
    """Execute ``spec`` and return its :class:`EngineResult`.

    ``pool`` is an optional reusable :class:`EnginePool` whose executor
    outlives this call (the caller owns shutdown); without one the
    engine creates and destroys a private executor as before.
    ``cancel`` is an optional :class:`~repro.engine.jobs.CancelToken`
    checked at workload boundaries — cancellation raises
    :class:`~repro.engine.jobs.JobCancelled` out of this call.
    """
    collector = get_collector()
    stats = EngineStats()
    started = time.perf_counter()
    with collector.span("engine.run", cat="engine", args={
        "scale": spec.scale, "jobs": spec.jobs, "cache": spec.cache,
    }) as span:
        workloads = spec.resolve_workloads()
        cache = ProfileCache(spec.cache_dir) if spec.cache else None
        runs: dict[str, WorkloadRun] = {}
        pending: list[_Job] = []

        for workload in workloads:
            if cancel is not None:
                cancel.raise_if_cancelled("probing %s" % workload.name)
            job = _Job(workload=workload)
            if cache is not None:
                job.material = key_material(
                    workload, spec.scale, spec.machine, spec.options,
                    spec.schemes,
                )
                if job.material is not None:
                    job.key = cache_key(job.material)
                    payload = cache.load(workload.name, job.key, job.material)
                    if payload is not None:
                        stats.cache_hits += 1
                        collector.instant(
                            "engine.cache.hit", cat="engine.cache",
                            args={"workload": workload.name},
                        )
                        runs[workload.name] = run_from_payload(
                            payload, workload, from_cache=True,
                        )
                        continue
                stats.cache_misses += 1
                collector.instant(
                    "engine.cache.miss", cat="engine.cache",
                    args={
                        "workload": workload.name,
                        "cacheable": job.material is not None,
                    },
                )
            pending.append(job)

        stats.jobs_scheduled = len(pending)
        for job in pending:
            collector.instant(
                "engine.job.scheduled", cat="engine.pool",
                args={"workload": job.workload.name},
            )

        if pending:
            if spec.jobs > 1 and len(pending) > 1:
                _execute_pool(pending, spec, stats, collector,
                              pool=pool, cancel=cancel)
            else:
                _execute_serial(pending, spec, stats, cancel=cancel)

        for job in pending:
            assert job.run is not None
            stats.jobs_completed += 1
            collector.instant(
                "engine.job.done", cat="engine.pool",
                args={"workload": job.workload.name, "source": job.source},
            )
            if cache is not None and job.key is not None:
                payload = job.payload_cache.get("payload")
                if payload is None:
                    payload = run_to_payload(job.run)
                cache.store(
                    job.workload.name, job.key, job.material, payload
                )
            runs[job.workload.name] = job.run

        # Deterministic ordering: spec order, not completion order.
        runs = {w.name: runs[w.name] for w in workloads}

        stats.elapsed_s = time.perf_counter() - started
        probes = stats.cache_hits + stats.cache_misses
        if probes:
            get_registry().gauge(
                "engine.cache.hit_rate",
                "cache hits / cache probes of the latest engine run",
            ).set(stats.cache_hits / probes)
        for name, value in stats.as_dict().items():
            if name == "elapsed_s":
                continue
            collector.counter(
                "engine.%s" % name, value, cat="engine.stats",
            )
        span.args.update(stats.as_dict())
    return EngineResult(spec, runs, stats)


# -- execution strategies ------------------------------------------------------


def _run_serial_job(job: _Job, spec: ExperimentSpec) -> None:
    job.run = profile_workload(
        job.workload, spec.scale, spec.machine,
        options=spec.options, schemes=spec.schemes, interp=spec.interp,
    )


def _execute_serial(jobs: list, spec: ExperimentSpec,
                    stats: EngineStats,
                    cancel: Optional[CancelToken] = None) -> None:
    for job in jobs:
        if cancel is not None:
            cancel.raise_if_cancelled("before %s" % job.workload.name)
        job.started = time.perf_counter()
        _run_serial_job(job, spec)
        job.source = "serial"
        stats.serial_jobs += 1
        job.finish()


def _execute_pool(jobs: list, spec: ExperimentSpec, stats: EngineStats,
                  collector, pool: Optional[EnginePool] = None,
                  cancel: Optional[CancelToken] = None) -> None:
    """Fan ``jobs`` out over a process pool; degrade gracefully.

    Collection happens in submission (= spec) order.  Each job gets
    ``spec.timeout_s`` of wall clock and one retry; a job that fails
    twice — or a pool that cannot be created at all — is computed
    serially in-process instead.

    With a caller-owned :class:`EnginePool` the executor is reused, not
    shut down here; a timeout or cancellation (a worker may still be
    busy) or a dead worker process (``BrokenExecutor`` at submit or
    result time) marks it broken, so the pool recreates it for the
    next run.
    """
    owns_executor = pool is None
    try:
        if pool is not None:
            executor = pool.executor()
        else:
            executor = _new_executor(min(spec.jobs, len(jobs)))
    except Exception as exc:  # no fork / no semaphores / low resources
        collector.instant(
            "engine.pool.unavailable", cat="engine.pool",
            args={"error": "%s: %s" % (type(exc).__name__, exc)},
        )
        stats.fallbacks += len(jobs)
        _execute_serial(jobs, spec, stats, cancel=cancel)
        return

    def submit(job: _Job):
        job.started = time.perf_counter()
        return executor.submit(_pool_worker, job.payload_args(spec))

    timed_out = False
    broken = False
    try:
        try:
            for job in jobs:
                job.future = submit(job)
        except Exception as exc:  # pool already broken at submit time
            broken = isinstance(exc, BrokenExecutor)
            collector.instant(
                "engine.pool.unavailable", cat="engine.pool",
                args={"error": "%s: %s" % (type(exc).__name__, exc)},
            )
            remaining = [job for job in jobs if job.run is None]
            stats.fallbacks += len(remaining)
            _execute_serial(remaining, spec, stats, cancel=cancel)
            return

        for job in jobs:
            if cancel is not None:
                cancel.raise_if_cancelled(
                    "collecting %s" % job.workload.name
                )
            payload = None
            for attempt in (0, 1):
                try:
                    payload = job.future.result(timeout=spec.timeout_s)
                    break
                except FuturesTimeoutError:
                    job.future.cancel()
                    timed_out = True
                    failure = "timeout"
                except Exception as exc:
                    broken = broken or isinstance(exc, BrokenExecutor)
                    failure = "%s: %s" % (type(exc).__name__, exc)
                if attempt == 0:
                    stats.retries += 1
                    collector.instant(
                        "engine.job.retry", cat="engine.pool",
                        args={
                            "workload": job.workload.name,
                            "reason": failure,
                        },
                    )
                    try:
                        job.future = submit(job)
                    except Exception as exc:
                        broken = broken or isinstance(exc, BrokenExecutor)
                        break  # pool unusable; go serial below
                else:
                    collector.instant(
                        "engine.job.failed", cat="engine.pool",
                        args={
                            "workload": job.workload.name,
                            "reason": failure,
                        },
                    )
            if payload is not None:
                job.run = run_from_payload(payload, job.workload)
                job.source = "pool"
                job.payload_cache["payload"] = payload
                stats.parallel_jobs += 1
                job.finish()
            else:
                stats.fallbacks += 1
                _run_serial_job(job, spec)
                job.source = "serial-fallback"
                stats.serial_jobs += 1
                job.finish()
    finally:
        if owns_executor:
            # A timed-out worker may still be busy; don't block on it.
            # In every other case wait so the pool's pipes close cleanly.
            executor.shutdown(wait=not timed_out, cancel_futures=True)
        elif timed_out or broken or (cancel is not None
                                     and cancel.cancelled):
            # Reusable pool with a dead, possibly-stuck or abandoned
            # worker: discard it so the next run starts from a fresh
            # executor.
            pool.mark_broken(executor)
