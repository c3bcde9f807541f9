"""The evaluation service: a long-lived asyncio daemon.

One :class:`EvaluationService` process keeps everything warm — the
persistent profile cache, the function decode caches, and a reusable
:class:`~repro.engine.pool.EnginePool` of profiling workers — and
serves ``submit`` / ``status`` / ``result`` / ``cancel`` / ``stats`` /
``ping`` / ``shutdown`` requests over a unix socket (one JSON document
per line, :mod:`repro.service.protocol`).

Request admission is explicit: the bounded priority queue rejects work
with a structured ``overloaded`` error instead of queueing unbounded,
and identical in-flight requests coalesce — N concurrent submissions
of the same spec run **one** profiling job, and every waiter receives
the byte-identical stored result text.  Completed engine jobs are
recorded into the PR 5 run ledger (``kind="service"``), every request
can be appended to a JSONL request log, and the whole lifecycle is
mirrored into ``service.*`` metrics (queue-depth / running gauges,
job latency histograms, submit/coalesce/reject counters).  Each job
runs once under its timeout: retrying and falling back to serial are
the engine's job (:mod:`repro.engine.pool`), not the service's.

Shutdown is graceful by default: ``shutdown`` (or SIGINT/SIGTERM in
the CLI wrapper) stops admissions, drains queued and in-flight jobs,
answers every pending ``result`` wait, then exits.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, Optional

from ..engine.jobs import CancelToken
from ..engine.pool import EnginePool, run_experiment
from ..obs.events import get_collector
from ..obs.metrics import MetricsRegistry, get_registry
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_JOB_FAILED,
    ERROR_OVERLOADED,
    ERROR_SHUTTING_DOWN,
    ERROR_TIMEOUT,
    ERROR_UNKNOWN_JOB,
    PROTOCOL_VERSION,
    canonical_dumps,
    decode_line,
    default_socket_path,
    engine_result_doc,
    error_doc,
    job_key,
    spec_from_doc,
    tune_from_doc,
)
from .queue import InFlightTable, Job, JobState, PriorityJobQueue, QueueFull
from .workers import WorkerSupervisor

__all__ = ["ServiceConfig", "EvaluationService", "ServiceThread"]


@dataclass
class ServiceConfig:
    """Everything a service instance needs to know at construction."""

    socket_path: Optional[str] = None    # None -> default_socket_path()
    workers: int = 2                     # concurrent jobs
    max_queue: int = 64                  # admission-control bound
    job_timeout_s: float = 900.0
    engine_workers: int = 2              # reusable process-pool width
    cache_dir: Optional[str] = None      # default profile-cache root
    ledger: bool = True                  # record completed engine jobs
    ledger_dir: Optional[str] = None
    request_log: Optional[str] = None    # JSONL request log path
    heartbeat_s: float = 1.0

    def resolved_socket(self) -> str:
        return self.socket_path or default_socket_path()


class EvaluationService:
    """The daemon: socket front, queue middle, supervised workers back.

    ``runner`` is injectable for tests: a callable ``(job) ->
    (Future[str], cancel_callable)`` replacing the engine-backed
    default (crash injection, blocking stubs, counting executions).
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 runner=None, registry: Optional[MetricsRegistry] = None,
                 clock=time.monotonic):
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else get_registry()
        self.clock = clock
        self.queue = PriorityJobQueue(self.config.max_queue, clock=clock)
        self.inflight = InFlightTable()
        self.jobs: Dict[str, Job] = {}
        self.engine_pool = EnginePool(self.config.engine_workers)
        # Headroom over `workers`: a timed-out job's thread may linger
        # until the engine observes its cancel token.
        self._dispatcher = ThreadPoolExecutor(
            max_workers=self.config.workers + 2,
            thread_name_prefix="service-job",
        )
        self.supervisor = WorkerSupervisor(
            self.queue, runner or self._engine_runner,
            workers=self.config.workers,
            job_timeout_s=self.config.job_timeout_s,
            heartbeat_s=self.config.heartbeat_s,
            registry=self.registry,
            clock=clock,
            # Evict completed jobs from the coalescing table eagerly;
            # their results stay addressable via self.jobs.
            on_job_done=self.inflight.remove,
        )
        self._job_ids = itertools.count(1)
        self._draining = False
        self._started_monotonic = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> str:
        """Bind the socket and start the workers; returns the path."""
        path = self.config.resolved_socket()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if os.path.exists(path):
            os.unlink(path)  # stale socket from a dead daemon
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_monotonic = self.clock()
        await self.supervisor.start()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=path,
        )
        return path

    async def serve(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`request_stop`)."""
        await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Tear down: close the socket, stop workers, release pools."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.supervisor.stop(drain=False)
        self._dispatcher.shutdown(wait=False, cancel_futures=True)
        self.engine_pool.shutdown(wait=False)
        path = self.config.resolved_socket()
        if os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:
                pass

    def request_stop(self) -> None:
        """Thread-safe: make :meth:`serve` return (no drain).  A no-op
        once the loop is gone (e.g. a ``shutdown`` op already ran)."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed: the service is already down

    # -- the engine-backed runner ----------------------------------------------

    def _engine_runner(self, job: Job):
        token = CancelToken()
        future = self._dispatcher.submit(self._execute_job, job, token)
        return future, token.cancel

    def _execute_job(self, job: Job, token: CancelToken) -> str:
        """Dispatcher-thread body: compute, serialize, record."""
        if job.kind == "experiment":
            spec = spec_from_doc(job.request["spec"])
            if spec.cache_dir is None and self.config.cache_dir:
                spec = spec.replace(cache_dir=self.config.cache_dir)
            result = run_experiment(
                spec,
                pool=self.engine_pool if spec.jobs > 1 else None,
                cancel=token,
            )
            text = canonical_dumps(engine_result_doc(result))
            self._record_engine_run(result)
            return text
        if job.kind == "tune":
            from ..tuning import tune_workload
            kwargs = dict(tune_from_doc(job.request["tune"]))
            if self.config.cache_dir and "cache_dir" not in kwargs:
                kwargs["cache_dir"] = self.config.cache_dir
            result = tune_workload(**kwargs)
            return canonical_dumps({
                "kind": "tune",
                "workload": result.workload,
                "result": result.as_dict(),
            })
        raise ValueError("unknown job kind %r" % (job.kind,))

    def _record_engine_run(self, result) -> None:
        """Append the completed job to the run ledger (best-effort)."""
        if not self.config.ledger:
            return
        try:
            from ..evaluation.experiments import record_run
            from ..obs.ledger import RunLedger
            record_run(result, ledger=RunLedger(self.config.ledger_dir),
                       kind="service")
        except Exception as exc:
            self.registry.counter(
                "service.ledger.errors", "failed ledger recordings",
            ).inc()
            get_collector().instant(
                "service.ledger.error", cat="service",
                args={"error": "%s: %s" % (type(exc).__name__, exc)},
            )

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                began = self.clock()
                doc = decode_line(line)
                if doc is None:
                    text = canonical_dumps(error_doc(
                        ERROR_BAD_REQUEST,
                        "each request must be one JSON object per line",
                    ))
                    op = "?"
                else:
                    op = str(doc.get("op", "?"))
                    text = await self._dispatch(doc)
                writer.write(text.encode("utf-8") + b"\n")
                await writer.drain()
                self._log_request(op, doc, text, self.clock() - began)
                if op == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _log_request(self, op: str, doc: Optional[dict], response: str,
                     elapsed_s: float) -> None:
        get_collector().instant(
            "service.request", cat="service",
            args={"op": op, "elapsed_ms": elapsed_s * 1e3},
        )
        if not self.config.request_log:
            return
        try:
            ok = '"ok":true' in response[:64]
            entry = {
                "ts": datetime.now(timezone.utc).isoformat(
                    timespec="milliseconds"),
                "op": op,
                "id": (doc or {}).get("id"),
                "ok": ok,
                "elapsed_ms": round(elapsed_s * 1e3, 3),
            }
            with open(self.config.request_log, "a") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError:
            pass

    # -- request dispatch ------------------------------------------------------

    async def _dispatch(self, doc: Dict[str, Any]) -> str:
        """One request document -> one response line (as text)."""
        op = doc.get("op")
        try:
            if op == "ping":
                return canonical_dumps({
                    "ok": True, "op": "ping",
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "uptime_s": round(
                        self.clock() - self._started_monotonic, 3),
                })
            if op == "submit":
                return self._op_submit(doc)
            if op == "status":
                return self._op_status(doc)
            if op == "result":
                return await self._op_result(doc)
            if op == "cancel":
                return self._op_cancel(doc)
            if op == "stats":
                return canonical_dumps({"ok": True, **self.stats_doc()})
            if op == "shutdown":
                return await self._op_shutdown(doc)
            return canonical_dumps(error_doc(
                ERROR_BAD_REQUEST, "unknown op %r" % (op,),
            ))
        except Exception as exc:
            return canonical_dumps(error_doc(
                ERROR_BAD_REQUEST, "%s: %s" % (type(exc).__name__, exc),
            ))

    def _op_submit(self, doc: Dict[str, Any]) -> str:
        if self._draining:
            return canonical_dumps(error_doc(
                ERROR_SHUTTING_DOWN, "service is draining; not accepting "
                "new jobs",
            ))
        kind = str(doc.get("kind", "experiment"))
        body_field = "spec" if kind == "experiment" else "tune"
        body = doc.get(body_field)
        if body is None:
            body = {}
        try:
            key = job_key(kind, body)
        except Exception as exc:
            self.registry.counter("service.jobs.invalid").inc()
            return canonical_dumps(error_doc(
                ERROR_BAD_REQUEST, "%s: %s" % (type(exc).__name__, exc),
            ))
        self.registry.counter(
            "service.jobs.submitted", "submissions accepted or coalesced",
        ).inc()

        existing = self.inflight.get(key)
        if existing is not None:
            existing.waiters += 1
            self.registry.counter(
                "service.jobs.coalesced",
                "submissions coalesced onto an in-flight identical job",
            ).inc()
            return canonical_dumps({
                "ok": True, "id": existing.id, "state": existing.state,
                "coalesced": True, "waiters": existing.waiters,
            })

        job = Job(
            id="j-%06d" % next(self._job_ids),
            kind=kind, key=key,
            request={"kind": kind, body_field: body},
            priority=int(doc.get("priority", 0)),
            done_event=asyncio.Event(),
        )
        try:
            self.queue.push(job)
        except QueueFull as exc:
            self.registry.counter(
                "service.jobs.rejected", "submissions rejected by "
                "admission control",
            ).inc()
            return canonical_dumps(error_doc(
                ERROR_OVERLOADED, str(exc),
                queue_depth=exc.depth, max_queue=exc.maxsize,
            ))
        self.jobs[job.id] = job
        self.inflight.add(job)
        self.registry.gauge(
            "service.queue.depth", "jobs waiting in the priority queue",
        ).set(len(self.queue))
        self.supervisor.notify()
        return canonical_dumps({
            "ok": True, "id": job.id, "state": job.state,
            "coalesced": False, "queue_depth": len(self.queue),
        })

    def _op_status(self, doc: Dict[str, Any]) -> str:
        job = self.jobs.get(str(doc.get("id", "")))
        if job is None:
            return canonical_dumps(error_doc(
                ERROR_UNKNOWN_JOB, "no job %r" % (doc.get("id"),),
            ))
        return canonical_dumps({"ok": True, **job.status_doc()})

    async def _op_result(self, doc: Dict[str, Any]) -> str:
        job = self.jobs.get(str(doc.get("id", "")))
        if job is None:
            return canonical_dumps(error_doc(
                ERROR_UNKNOWN_JOB, "no job %r" % (doc.get("id"),),
            ))
        timeout_s = doc.get("timeout_s")
        if not job.finished:
            try:
                if timeout_s is None:
                    await job.done_event.wait()
                else:
                    await asyncio.wait_for(
                        job.done_event.wait(), timeout=float(timeout_s),
                    )
            except asyncio.TimeoutError:
                return canonical_dumps(error_doc(
                    ERROR_TIMEOUT,
                    "job %s still %s after %.1fs"
                    % (job.id, job.state, float(timeout_s)),
                    id=job.id, state=job.state,
                ))
        if job.state == JobState.DONE:
            # Splice the stored canonical text verbatim: every waiter
            # gets byte-identical result bytes, not merely equal JSON.
            return (
                '{"id":"%s","ok":true,"result":%s,"state":"done"}'
                % (job.id, job.result_text)
            )
        error = job.error or {"error": ERROR_JOB_FAILED,
                              "detail": "job did not complete"}
        return canonical_dumps(error_doc(
            str(error.get("error", ERROR_JOB_FAILED)),
            str(error.get("detail", "")),
            id=job.id, state=job.state,
        ))

    def _op_cancel(self, doc: Dict[str, Any]) -> str:
        job = self.jobs.get(str(doc.get("id", "")))
        if job is None:
            return canonical_dumps(error_doc(
                ERROR_UNKNOWN_JOB, "no job %r" % (doc.get("id"),),
            ))
        if job.state == JobState.QUEUED and self.queue.discard(job):
            self.inflight.remove(job)
            job.error = {"error": "cancelled", "detail": "cancelled while "
                         "queued"}
            self.registry.counter("service.jobs.cancelled").inc()
            if job.done_event is not None:
                job.done_event.set()
            return canonical_dumps({
                "ok": True, "id": job.id, "state": job.state,
            })
        if job.state == JobState.RUNNING:
            # Cooperative: the engine raises JobCancelled at the next
            # workload boundary; the worker marks the job cancelled.
            if job.cancel_fn is not None:
                job.cancel_fn()
            return canonical_dumps({
                "ok": True, "id": job.id, "state": job.state,
                "note": "cancellation requested; takes effect at the "
                        "next workload boundary",
            })
        return canonical_dumps({
            "ok": True, "id": job.id, "state": job.state,
            "note": "job already finished",
        })

    async def _op_shutdown(self, doc: Dict[str, Any]) -> str:
        drain = bool(doc.get("drain", True))
        self._draining = True
        began = self.clock()
        drained = 0
        if drain:
            before_unfinished = [
                job for job in self.jobs.values() if not job.finished
            ]
            await self.supervisor.stop(drain=True)
            drained = sum(1 for job in before_unfinished if job.finished)
        else:
            await self.supervisor.stop(drain=False)
        if self._stop_event is not None:
            self._stop_event.set()
        return canonical_dumps({
            "ok": True, "op": "shutdown", "drained": drained,
            "drain_s": round(self.clock() - began, 3),
        })

    # -- introspection ---------------------------------------------------------

    def stats_doc(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        now = self.clock()
        metrics = {
            name: doc for name, doc in self.registry.snapshot().items()
            if name.startswith("service.") or name.startswith("engine.")
        }
        return {
            "queue_depth": len(self.queue),
            "max_queue": self.config.max_queue,
            "running": len(self.supervisor.running),
            "workers": self.config.workers,
            "jobs": states,
            "inflight_keys": len(self.inflight),
            "heartbeat_age_s": {
                str(index): round(now - beat, 3)
                for index, beat in sorted(
                    self.supervisor.heartbeats.items())
            },
            "worker_restarts": self.supervisor.restarts,
            "engine_pool": {
                "created": self.engine_pool.created,
                "broken": self.engine_pool.broken,
                "healthy": self.engine_pool.healthy,
            },
            "metrics": metrics,
        }


class ServiceThread:
    """A service running on a background thread (tests, notebooks, CI).

    ::

        with ServiceThread(ServiceConfig(socket_path=p)) as handle:
            client = ServiceClient(p)
            ...
    """

    def __init__(self, config: ServiceConfig, *, runner=None,
                 registry: Optional[MetricsRegistry] = None):
        self.service = EvaluationService(
            config, runner=runner, registry=registry,
        )
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True,
        )

    def _run(self) -> None:
        async def body():
            await self.service.start()
            self._ready.set()
            try:
                await self.service._stop_event.wait()
            finally:
                await self.service.stop()
        try:
            asyncio.run(body())
        except BaseException as exc:  # surface startup failures
            self._error = exc
            self._ready.set()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(
                "service failed to start: %r" % (self._error,)
            )
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self.service.request_stop()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
