"""The service's synchronous core: the job queue and coalescing.

Everything here is deliberately free of asyncio, sockets, and wall
clocks: the queue takes an injectable ``clock`` callable (defaulting
to :func:`time.monotonic`), so the scheduling behaviour — FIFO-within-
priority ordering, admission control and coalescing — is testable
under a fake clock with exact expected values.  The asyncio layer
(:mod:`repro.service.server` / :mod:`repro.service.workers`) is a thin
shell over these types.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "JobState",
    "Job",
    "QueueFull",
    "PriorityJobQueue",
    "InFlightTable",
]

Clock = Callable[[], float]


class JobState:
    """Job lifecycle states (plain strings: they go on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States in which a job can still absorb coalesced submissions.
    ACTIVE = (QUEUED, RUNNING)


@dataclass
class Job:
    """One unit of service work, shared by every coalesced submitter.

    ``key`` is the content digest identical requests share; ``request``
    is the validated wire document; ``result_text`` is the canonical
    serialized result — stored exactly once, so every waiter receives
    byte-identical payload.
    """

    id: str
    kind: str                      # experiment | tune
    key: str
    request: Dict[str, Any]
    priority: int = 0
    state: str = JobState.QUEUED
    waiters: int = 1               # coalesced submissions, incl. the first
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result_text: Optional[str] = None
    error: Optional[Dict[str, Any]] = None
    #: Set by the server to an ``asyncio.Event`` completion latch; the
    #: queue core never touches it.
    done_event: Any = field(default=None, repr=False, compare=False)
    #: Set by the worker while the job runs: a zero-argument callable
    #: requesting cooperative cancellation of the run.
    cancel_fn: Any = field(default=None, repr=False, compare=False)

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED,
                              JobState.CANCELLED)

    def status_doc(self) -> Dict[str, Any]:
        """The ``status`` response body (no result payload)."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "priority": self.priority,
            "waiters": self.waiters,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class QueueFull(Exception):
    """Admission control rejected a submission (queue at capacity)."""

    def __init__(self, depth: int, maxsize: int):
        super().__init__(
            "job queue full: %d queued, capacity %d" % (depth, maxsize)
        )
        self.depth = depth
        self.maxsize = maxsize


class PriorityJobQueue:
    """A bounded priority queue: higher ``priority`` first, FIFO within.

    ``push`` raises :class:`QueueFull` at capacity — the service turns
    that into a structured ``overloaded`` rejection instead of letting
    submissions pile up unbounded.  Cancelled jobs are removed lazily:
    ``discard`` flips their state and ``pop`` skips them, so cancelling
    is O(1) and never reheapifies.
    """

    def __init__(self, maxsize: int = 64, clock: Clock = time.monotonic):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1, got %r" % (maxsize,))
        self.maxsize = maxsize
        self.clock = clock
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    @property
    def depth(self) -> int:
        return self._live

    def push(self, job: Job) -> None:
        if self._live >= self.maxsize:
            raise QueueFull(self._live, self.maxsize)
        job.state = JobState.QUEUED
        job.submitted_at = self.clock()
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
        self._live += 1

    def pop(self) -> Optional[Job]:
        """Highest-priority, oldest job — or ``None`` when empty."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state != JobState.QUEUED:
                continue  # discarded entry
            self._live -= 1
            return job
        return None

    def discard(self, job: Job) -> bool:
        """Cancel ``job`` if it is still queued.  Lazy: the heap entry
        stays until ``pop`` reaches it."""
        if job.state != JobState.QUEUED:
            return False
        job.state = JobState.CANCELLED
        self._live -= 1
        return True


class InFlightTable:
    """Coalescing map: job key -> the single active job computing it.

    N concurrent identical submissions collapse onto one job; every
    caller polls the same job id and is handed the same stored result
    bytes.  Finished jobs fall out of the table (their results live in
    the server's job registry), so a resubmission after completion is a
    fresh job — the *persistent* dedup across completed runs is the
    engine's profile cache, not this table.
    """

    def __init__(self):
        self._active: Dict[str, Job] = {}

    def get(self, key: str) -> Optional[Job]:
        job = self._active.get(key)
        if job is not None and job.state not in JobState.ACTIVE:
            del self._active[key]
            return None
        return job

    def add(self, job: Job) -> None:
        self._active[job.key] = job

    def remove(self, job: Job) -> None:
        if self._active.get(job.key) is job:
            del self._active[job.key]

    def __len__(self) -> int:
        return len(self._active)
