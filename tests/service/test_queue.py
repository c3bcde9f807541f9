"""The service's synchronous core under a fake clock.

Everything in :mod:`repro.service.queue` is wall-clock-free by
construction; these tests pin the exact scheduling contract — FIFO
within priority, admission control and coalescing — without a single
``sleep``.
"""

import pytest

from repro.service.queue import (
    InFlightTable,
    Job,
    JobState,
    PriorityJobQueue,
    QueueFull,
)


class FakeClock:
    """A monotonic clock that reads whatever the test set."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


def make_job(job_id: str, priority: int = 0, key: str = "") -> Job:
    return Job(id=job_id, kind="experiment", key=key or job_id,
               request={}, priority=priority)


class TestPriorityJobQueue:
    def test_fifo_within_priority(self):
        queue = PriorityJobQueue(maxsize=16, clock=FakeClock())
        for name in ("a", "b", "c"):
            queue.push(make_job(name))
        assert [queue.pop().id for _ in range(3)] == ["a", "b", "c"]

    def test_higher_priority_first_fifo_within(self):
        queue = PriorityJobQueue(maxsize=16, clock=FakeClock())
        queue.push(make_job("low-1", priority=0))
        queue.push(make_job("high-1", priority=5))
        queue.push(make_job("low-2", priority=0))
        queue.push(make_job("high-2", priority=5))
        order = [queue.pop().id for _ in range(4)]
        assert order == ["high-1", "high-2", "low-1", "low-2"]

    def test_push_stamps_submitted_at_from_clock(self):
        clock = FakeClock(start=42.0)
        queue = PriorityJobQueue(maxsize=4, clock=clock)
        job = make_job("a")
        queue.push(job)
        assert job.submitted_at == 42.0

    def test_admission_control_raises_queue_full(self):
        queue = PriorityJobQueue(maxsize=2, clock=FakeClock())
        queue.push(make_job("a"))
        queue.push(make_job("b"))
        with pytest.raises(QueueFull) as err:
            queue.push(make_job("c"))
        assert err.value.depth == 2
        assert err.value.maxsize == 2
        # Popping frees capacity again.
        queue.pop()
        queue.push(make_job("c"))
        assert len(queue) == 2

    def test_discard_is_lazy_and_pop_skips(self):
        queue = PriorityJobQueue(maxsize=4, clock=FakeClock())
        first, second = make_job("a"), make_job("b")
        queue.push(first)
        queue.push(second)
        assert queue.discard(first)
        assert first.state == JobState.CANCELLED
        assert len(queue) == 1            # live count drops immediately
        assert queue.pop() is second      # heap entry skipped lazily
        assert queue.pop() is None

    def test_discard_running_job_is_a_noop(self):
        queue = PriorityJobQueue(maxsize=4, clock=FakeClock())
        job = make_job("a")
        queue.push(job)
        job.state = JobState.RUNNING
        assert not queue.discard(job)

    def test_empty_pop_returns_none(self):
        assert PriorityJobQueue(clock=FakeClock()).pop() is None

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PriorityJobQueue(maxsize=0)


class TestInFlightTable:
    def test_coalesces_on_identical_key(self):
        table = InFlightTable()
        job = make_job("a", key="digest-1")
        table.add(job)
        assert table.get("digest-1") is job
        assert table.get("digest-2") is None

    def test_finished_jobs_fall_out(self):
        table = InFlightTable()
        job = make_job("a", key="digest-1")
        table.add(job)
        job.state = JobState.DONE
        assert table.get("digest-1") is None
        assert len(table) == 0

    def test_running_jobs_still_coalesce(self):
        table = InFlightTable()
        job = make_job("a", key="digest-1")
        table.add(job)
        job.state = JobState.RUNNING
        assert table.get("digest-1") is job

    def test_remove_only_drops_the_same_job(self):
        table = InFlightTable()
        first = make_job("a", key="k")
        second = make_job("b", key="k")
        table.add(first)
        table.add(second)     # replaced
        table.remove(first)   # not the registered job: no-op
        assert table.get("k") is second
        table.remove(second)
        assert table.get("k") is None
