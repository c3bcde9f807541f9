"""Long-lived evaluation service: queue, coalescing, supervision.

One process owns the warm state — the decode caches, the persistent
profile cache, a reusable engine process pool — and serves profiling
and tuning jobs to any number of clients over a local unix socket
speaking a JSON-line protocol (:mod:`repro.service.protocol`):

* :mod:`repro.service.queue` — the synchronous, fake-clock-testable
  core: the bounded priority queue (FIFO within priority, explicit
  :class:`QueueFull` admission control) and the in-flight coalescing
  table;
* :mod:`repro.service.workers` — asyncio worker supervision:
  heartbeats, dead-worker restarts and the per-job timeout (each job
  runs once; the engine owns retries and the serial fallback);
* :mod:`repro.service.server` — :class:`EvaluationService`, the
  asyncio socket server tying it together (admission, dedup, ledger
  recording, ``service.*`` metrics, graceful draining shutdown);
* :mod:`repro.service.client` — the synchronous :class:`ServiceClient`
  scripts and CI drive.

Typical use::

    # terminal 1
    python -m repro.evaluation serve --socket /tmp/repro.sock

    # terminal 2 (or any script)
    from repro.api import ExperimentSpec, ServiceClient
    with ServiceClient("/tmp/repro.sock") as client:
        job = client.submit(ExperimentSpec(workloads=("cg",)))
        print(client.result(job["id"])["workloads"].keys())
"""

from .client import ServiceClient, ServiceError
from .protocol import (
    DEFAULT_SOCKET,
    ERROR_OVERLOADED,
    engine_result_doc,
    spec_from_doc,
    spec_to_doc,
)
from .queue import InFlightTable, Job, JobState, PriorityJobQueue, QueueFull
from .server import EvaluationService, ServiceConfig

__all__ = [
    "ServiceClient", "ServiceError",
    "DEFAULT_SOCKET", "ERROR_OVERLOADED",
    "engine_result_doc", "spec_from_doc", "spec_to_doc",
    "InFlightTable", "Job", "JobState", "PriorityJobQueue", "QueueFull",
    "EvaluationService", "ServiceConfig",
]
