"""The evaluation service end to end, in process, with injected runners.

Each test runs a real :class:`EvaluationService` (real unix socket,
real asyncio workers) on a background thread via
:class:`ServiceThread`, but swaps the engine-backed runner for a stub
so the scheduling behaviour — coalescing, one run per job, the per-job
timeout, admission control, graceful drain — is exercised in
milliseconds and with injectable failures.
"""

import json
import threading
import time
from concurrent.futures import Future

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import canonical_dumps
from repro.service.queue import JobState
from repro.service.server import ServiceConfig, ServiceThread

SPEC = {"workloads": ["cg"], "scale": 1}
OTHER_SPEC = {"workloads": ["lu"], "scale": 1}
THIRD_SPEC = {"workloads": ["fft"], "scale": 1}


class StubRunner:
    """An injectable runner: counts executions, optionally blocks or
    fails, resolves its futures on a helper thread."""

    def __init__(self, *, result=None, block=False, fail_times=0):
        self.result_doc = result if result is not None else {"value": 42}
        self.block = block
        self.fail_times = fail_times
        self.release = threading.Event()
        #: Set by the first call: a worker popped a job and ran it.
        self.started = threading.Event()
        self.calls = 0
        self.cancel_calls = 0
        self._lock = threading.Lock()

    def __call__(self, job):
        with self._lock:
            self.calls += 1
            call = self.calls
        self.started.set()
        future = Future()

        def body():
            # Running, like a dispatcher thread's future: the service's
            # timeout can no longer cancel it, so setting it is safe.
            if not future.set_running_or_notify_cancel():
                return
            if self.block:
                self.release.wait(timeout=30.0)
            if call <= self.fail_times:
                future.set_exception(RuntimeError("injected crash #%d"
                                                  % call))
            else:
                future.set_result(canonical_dumps(self.result_doc))

        threading.Thread(target=body, daemon=True).start()

        def cancel():
            self.cancel_calls += 1
            self.release.set()

        return future, cancel


def fast_config(path, **overrides) -> ServiceConfig:
    kwargs = dict(
        socket_path=str(path),
        workers=2,
        max_queue=8,
        job_timeout_s=10.0,
        ledger=False,
        heartbeat_s=0.05,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "service.sock")


class TestBasics:
    def test_ping_and_stats(self, socket_path):
        runner = StubRunner()
        with ServiceThread(fast_config(socket_path), runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                pong = client.ping()
                assert pong["protocol"] == 1
                stats = client.stats()
                assert stats["queue_depth"] == 0
                assert stats["workers"] == 2

    def test_submit_run_roundtrip(self, socket_path):
        runner = StubRunner(result={"answer": 7})
        with ServiceThread(fast_config(socket_path), runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                doc = client.run(SPEC)
                assert doc == {"answer": 7}
                assert runner.calls == 1

    def test_unknown_job_and_bad_spec(self, socket_path):
        with ServiceThread(fast_config(socket_path), runner=StubRunner(),
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                with pytest.raises(ServiceError) as err:
                    client.status("j-999999")
                assert err.value.code == "unknown-job"
                with pytest.raises(ServiceError) as err:
                    client.submit({"workloads": ["cg"], "scael": 2})
                assert err.value.code == "bad-request"
                assert "scael" in err.value.detail


class TestCoalescing:
    def test_eight_concurrent_identical_submissions_run_once(
            self, socket_path):
        runner = StubRunner(block=True, result={"value": 42})
        registry = MetricsRegistry()
        with ServiceThread(fast_config(socket_path), runner=runner,
                           registry=registry):
            clients = [ServiceClient(socket_path) for _ in range(8)]
            acks = [None] * 8
            barrier = threading.Barrier(8)

            def submit(i):
                barrier.wait()
                acks[i] = clients[i].submit(SPEC)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)

            ids = {ack["id"] for ack in acks}
            assert len(ids) == 1                      # ONE job
            assert sum(ack["coalesced"] for ack in acks) == 7
            job_id = ids.pop()

            # All eight submissions are in before anything ran to
            # completion; release the single execution now.  The ack
            # comes back before a worker pops the job, so wait for the
            # runner to start.
            assert runner.started.wait(timeout=10.0)
            assert runner.calls == 1
            runner.release.set()

            raws = []
            for client in clients:
                doc = client.result(job_id, timeout_s=10.0)
                assert doc == {"value": 42}
                raws.append(client.last_raw)
            # Byte-identical response lines for every waiter.
            assert len(set(raws)) == 1
            assert b'"result":{"value":42}' in raws[0]

            assert runner.calls == 1                  # still one run
            stats = clients[0].stats()
            metrics = stats["metrics"]
            assert metrics["service.jobs.coalesced"]["value"] == 7
            assert metrics["service.jobs.submitted"]["value"] == 8
            status = clients[0].status(job_id)
            assert status["waiters"] == 8
            for client in clients:
                client.close()

    def test_resubmission_after_completion_is_a_fresh_job(
            self, socket_path):
        runner = StubRunner()
        with ServiceThread(fast_config(socket_path), runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                first = client.submit(SPEC)
                client.result(first["id"], timeout_s=10.0)
                second = client.submit(SPEC)
                assert second["id"] != first["id"]
                assert not second["coalesced"]
                client.result(second["id"], timeout_s=10.0)
                assert runner.calls == 2


class TestFailure:
    def test_failing_job_runs_once_and_fails_structurally(
            self, socket_path):
        runner = StubRunner(fail_times=1)
        with ServiceThread(fast_config(socket_path), runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                ack = client.submit(SPEC)
                with pytest.raises(ServiceError) as err:
                    client.result(ack["id"], timeout_s=10.0)
                assert err.value.code == "job-failed"
                assert "RuntimeError: injected crash #1" in err.value.detail
                assert runner.calls == 1
                stats = client.stats()
                assert stats["metrics"][
                    "service.jobs.failed"]["value"] == 1

    def test_job_past_its_timeout_is_cancelled_and_fails(self, socket_path):
        runner = StubRunner(block=True)
        config = fast_config(socket_path, job_timeout_s=0.1)
        with ServiceThread(config, runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                ack = client.submit(SPEC)
                with pytest.raises(ServiceError) as err:
                    client.result(ack["id"], timeout_s=10.0)
                assert err.value.code == "timeout"
                assert err.value.doc["state"] == JobState.FAILED
                assert "exceeded 0.1s" in err.value.detail
                assert runner.calls == 1
                assert runner.cancel_calls == 1


class TestAdmissionControl:
    def test_queue_overflow_returns_structured_overloaded(
            self, socket_path):
        runner = StubRunner(block=True)
        config = fast_config(socket_path, workers=1, max_queue=1)
        with ServiceThread(config, runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                running = client.submit(SPEC)
                assert wait_for(
                    lambda: client.status(running["id"])["state"]
                    == JobState.RUNNING)
                queued = client.submit(OTHER_SPEC)        # fills the queue
                assert not queued["coalesced"]
                with pytest.raises(ServiceError) as err:
                    client.submit(THIRD_SPEC)
                assert err.value.code == "overloaded"
                assert err.value.doc["queue_depth"] == 1
                assert err.value.doc["max_queue"] == 1
                # Identical work still coalesces even at capacity.
                again = client.submit(OTHER_SPEC)
                assert again["coalesced"]
                runner.release.set()
                client.result(queued["id"], timeout_s=10.0)

    def test_cancel_queued_job(self, socket_path):
        runner = StubRunner(block=True)
        config = fast_config(socket_path, workers=1, max_queue=4)
        with ServiceThread(config, runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                running = client.submit(SPEC)
                assert wait_for(
                    lambda: client.status(running["id"])["state"]
                    == JobState.RUNNING)
                queued = client.submit(OTHER_SPEC)
                cancelled = client.cancel(queued["id"])
                assert cancelled["state"] == JobState.CANCELLED
                with pytest.raises(ServiceError) as err:
                    client.result(queued["id"], timeout_s=1.0)
                assert err.value.code == "cancelled"
                assert runner.calls == 1              # never executed
                runner.release.set()

    def test_result_wait_timeout(self, socket_path):
        runner = StubRunner(block=True)
        with ServiceThread(fast_config(socket_path), runner=runner,
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                ack = client.submit(SPEC)
                with pytest.raises(ServiceError) as err:
                    client.result(ack["id"], timeout_s=0.05)
                assert err.value.code == "timeout"
                runner.release.set()
                doc = client.result(ack["id"], timeout_s=10.0)
                assert doc == {"value": 42}


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(self, socket_path):
        runner = StubRunner(block=True, result={"drained": True})
        config = fast_config(socket_path, workers=1)
        handle = ServiceThread(config, runner=runner,
                               registry=MetricsRegistry()).start()
        client = ServiceClient(socket_path)
        waiter = ServiceClient(socket_path)
        try:
            ack = client.submit(SPEC)
            assert wait_for(
                lambda: client.status(ack["id"])["state"]
                == JobState.RUNNING)
            results = {}

            def fetch():
                results["doc"] = waiter.result(ack["id"], timeout_s=10.0)

            fetcher = threading.Thread(target=fetch)
            fetcher.start()
            # Let the job finish shortly after the drain begins.
            threading.Timer(0.2, runner.release.set).start()
            response = client.shutdown(drain=True)
            assert response["drained"] == 1
            fetcher.join(timeout=10.0)
            assert results["doc"] == {"drained": True}
            # After shutdown the service is gone: a draining daemon
            # answers `shutting-down`, a stopped one has no socket.
            with pytest.raises((ServiceError, OSError)):
                ServiceClient(socket_path).submit(OTHER_SPEC)
        finally:
            waiter.close()
            handle.stop()

    def test_shutdown_rejects_new_submissions_while_draining(
            self, socket_path):
        runner = StubRunner()
        handle = ServiceThread(fast_config(socket_path), runner=runner,
                               registry=MetricsRegistry()).start()
        client = ServiceClient(socket_path)
        try:
            client.shutdown(drain=True)
        finally:
            handle.stop()


class TestRequestLog:
    def test_requests_are_logged_as_jsonl(self, tmp_path, socket_path):
        log_path = tmp_path / "requests.jsonl"
        config = fast_config(socket_path, request_log=str(log_path))
        with ServiceThread(config, runner=StubRunner(),
                           registry=MetricsRegistry()):
            with ServiceClient(socket_path) as client:
                client.ping()
                client.run(SPEC)
        lines = [json.loads(line)
                 for line in log_path.read_text().splitlines()]
        ops = [entry["op"] for entry in lines]
        assert "ping" in ops and "submit" in ops and "result" in ops
        assert all(entry["ok"] for entry in lines)
