"""Worker supervision: the asyncio shell around the queue core.

A :class:`WorkerSupervisor` owns N asyncio worker tasks, each pulling
jobs off the :class:`~repro.service.queue.PriorityJobQueue` and driving
them through the injected ``runner`` (a callable returning a
``concurrent.futures.Future`` plus a cancel callable — the real one
dispatches to the engine on a thread, tests inject stubs).  Supervision
means:

* **heartbeats** — every worker stamps ``heartbeats[index]`` each loop
  iteration; the monitor task exports the oldest age as a gauge and
  restarts any worker task that died (``service.worker.restarted``);
* **per-job timeout** — ``asyncio.wait_for`` around the job future;
  on expiry the job's cancel callable fires (cooperative engine
  cancellation) and the job fails with ``timeout``.

Each job runs once.  Retries and the serial fallback belong to the
engine (:func:`~repro.engine.pool.run_experiment` retries a crashed or
timed-out pool job once, then computes it in-process), so a failure
that reaches this layer would only repeat on retry.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, Optional

from ..engine.jobs import JobCancelled
from ..obs.events import get_collector
from ..obs.metrics import MetricsRegistry, get_registry
from .queue import Job, JobState, PriorityJobQueue

__all__ = ["WorkerSupervisor"]

#: runner(job) -> (Future[str], cancel_callable)
Runner = Callable[[Job], tuple]


class WorkerSupervisor:
    """N supervised asyncio workers draining one priority queue."""

    def __init__(self, queue: PriorityJobQueue, runner: Runner, *,
                 workers: int = 2,
                 job_timeout_s: float = 900.0,
                 heartbeat_s: float = 1.0,
                 registry: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_job_done: Optional[Callable[[Job], None]] = None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.queue = queue
        self.runner = runner
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.heartbeat_s = heartbeat_s
        self.registry = registry if registry is not None else get_registry()
        self.clock = clock
        self.on_job_done = on_job_done

        self.heartbeats: Dict[int, float] = {}
        self.running: Dict[int, Job] = {}
        self.restarts = 0
        self._tasks: Dict[int, asyncio.Task] = {}
        self._monitor: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._draining = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._stopping = False
        self._draining = False
        for index in range(self.workers):
            self._spawn(index)
        self._monitor = asyncio.create_task(self._monitor_loop())

    def _spawn(self, index: int) -> None:
        self.heartbeats[index] = self.clock()
        self._tasks[index] = asyncio.create_task(
            self._worker_loop(index), name="service-worker-%d" % index,
        )

    def notify(self) -> None:
        """Wake idle workers (call after every queue push)."""
        if self._wake is not None:
            self._wake.set()

    @property
    def idle(self) -> bool:
        return not self.running and len(self.queue) == 0

    async def stop(self, drain: bool = True) -> None:
        """Stop the workers.  ``drain=True`` finishes every queued and
        in-flight job first; ``drain=False`` stops after the jobs that
        are already running (queued jobs stay queued)."""
        self._draining = True
        if not drain:
            self._stopping = True
        self.notify()
        tasks = [t for t in self._tasks.values() if not t.done()]
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
            self._monitor = None
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- the worker loop -------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        assert self._wake is not None
        while True:
            self.heartbeats[index] = self.clock()
            if self._stopping:
                return
            job = self.queue.pop()
            if job is None:
                if self._draining:
                    return
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=self.heartbeat_s,
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            self._queue_gauge()
            try:
                await self._run_job(index, job)
            finally:
                self.running.pop(index, None)
                self._running_gauge()

    async def _run_job(self, index: int, job: Job) -> None:
        collector = get_collector()
        job.state = JobState.RUNNING
        job.started_at = self.clock()
        self.running[index] = job
        self._running_gauge()
        self.registry.histogram(
            "service.job.queue_ms", "time spent queued before execution",
        ).observe((job.started_at - job.submitted_at) * 1e3)

        failure = None
        cancelled = False
        try:
            future, job.cancel_fn = self.runner(job)
            job.result_text = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=self.job_timeout_s,
            )
            job.state = JobState.DONE
        except asyncio.TimeoutError:
            job.cancel_fn()
            failure = {"error": "timeout",
                       "detail": "job exceeded %.1fs" % self.job_timeout_s}
        except JobCancelled as exc:
            cancelled = True
            failure = {"error": "cancelled", "detail": str(exc)}
        except asyncio.CancelledError:
            job.state = JobState.FAILED
            job.error = {"error": "worker-stopped",
                         "detail": "worker task cancelled mid-job"}
            self._finish(job, collector)
            raise
        except Exception as exc:
            failure = {
                "error": "job-failed",
                "detail": "%s: %s" % (type(exc).__name__, exc),
            }

        if job.state != JobState.DONE:
            job.state = (JobState.CANCELLED if cancelled
                         else JobState.FAILED)
            job.error = failure
            self.registry.counter(
                "service.jobs.cancelled" if cancelled
                else "service.jobs.failed",
            ).inc()
        else:
            self.registry.counter(
                "service.jobs.completed", "jobs finishing successfully",
            ).inc()
        self._finish(job, collector)

    def _finish(self, job: Job, collector) -> None:
        job.finished_at = self.clock()
        if job.started_at is not None:
            self.registry.histogram(
                "service.job.run_ms", "execution wall clock per job",
            ).observe((job.finished_at - job.started_at) * 1e3)
        self.registry.histogram(
            "service.job.latency_ms", "submit-to-finish wall clock per job",
        ).observe((job.finished_at - job.submitted_at) * 1e3)
        collector.instant(
            "service.job.done", cat="service",
            args={"id": job.id, "state": job.state,
                  "waiters": job.waiters},
        )
        if job.done_event is not None:
            job.done_event.set()
        if self.on_job_done is not None:
            self.on_job_done(job)

    # -- supervision -----------------------------------------------------------

    async def _monitor_loop(self) -> None:
        """Restart dead workers; export heartbeat age."""
        while True:
            await asyncio.sleep(self.heartbeat_s)
            now = self.clock()
            if self.heartbeats:
                oldest = min(self.heartbeats.values())
                self.registry.gauge(
                    "service.worker.heartbeat_age_s",
                    "age of the stalest worker heartbeat",
                ).set(now - oldest)
            if self._stopping or self._draining:
                continue
            for index, task in list(self._tasks.items()):
                if task.done():
                    self.restarts += 1
                    self.registry.counter(
                        "service.worker.restarted",
                        "worker tasks restarted by the supervisor",
                    ).inc()
                    get_collector().instant(
                        "service.worker.restart", cat="service",
                        args={"worker": index},
                    )
                    self._spawn(index)

    # -- gauges ----------------------------------------------------------------

    def _queue_gauge(self) -> None:
        self.registry.gauge(
            "service.queue.depth", "jobs waiting in the priority queue",
        ).set(len(self.queue))

    def _running_gauge(self) -> None:
        self.registry.gauge(
            "service.jobs.running", "jobs currently executing",
        ).set(len(self.running))
