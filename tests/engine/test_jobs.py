"""Asynchronous engine runs: handles, cancellation, the reusable pool."""

import os
import threading

import pytest

from repro.engine import (
    CancelToken,
    EngineJobHandle,
    EnginePool,
    ExperimentSpec,
    JobCancelled,
    run_experiment,
    submit_experiment,
)

from .tinywork import TinyWorkload


def _spec(**kw):
    kw.setdefault("workloads", (TinyWorkload(),))
    kw.setdefault("cache", False)
    return ExperimentSpec(**kw)


def _dying_worker(payload):
    os._exit(1)  # the worker process dies: the executor breaks


class TestCancelToken:
    def test_starts_uncancelled(self):
        token = CancelToken()
        assert not token.cancelled
        token.raise_if_cancelled()          # no-op while clear

    def test_raises_with_context_after_cancel(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled
        with pytest.raises(JobCancelled, match="probing cg"):
            token.raise_if_cancelled("probing cg")

    def test_pre_cancelled_token_aborts_the_run(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(JobCancelled):
            run_experiment(_spec(), cancel=token)

    def test_cancel_between_workloads_keeps_nothing(self):
        """The engine checks the token before each workload probe."""
        token = CancelToken()
        original_build = TinyWorkload.build

        def cancelling_build(self, memory, scale, kinds):
            token.cancel()                  # fires mid-run
            return original_build(self, memory, scale, kinds)

        workloads = (TinyWorkload(), TinyWorkload())
        try:
            TinyWorkload.build = cancelling_build
            with pytest.raises(JobCancelled):
                run_experiment(_spec(workloads=workloads), cancel=token)
        finally:
            TinyWorkload.build = original_build


class TestSubmitExperiment:
    def test_handle_resolves_to_a_normal_result(self):
        handle = submit_experiment(_spec())
        assert isinstance(handle, EngineJobHandle)
        result = handle.result(timeout=60.0)
        assert result["tiny"].task_count == TinyWorkload.chunks
        assert handle.done()
        assert handle.exception() is None

    def test_cancel_running_job_is_cooperative(self):
        gate = threading.Event()
        original_build = TinyWorkload.build

        def gated_build(self, memory, scale, kinds):
            gate.set()                       # the job is now mid-run
            return original_build(self, memory, scale, kinds)

        workloads = tuple(TinyWorkload() for _ in range(6))
        try:
            TinyWorkload.build = gated_build
            handle = submit_experiment(_spec(workloads=workloads))
            assert gate.wait(timeout=30.0)
            handle.cancel()
            with pytest.raises(JobCancelled):
                handle.result(timeout=60.0)
        finally:
            TinyWorkload.build = original_build

    def test_job_ids_are_unique(self):
        first = submit_experiment(_spec())
        second = submit_experiment(_spec())
        assert first.job_id != second.job_id
        first.result(timeout=60.0)
        second.result(timeout=60.0)


class TestEnginePool:
    def test_executor_is_lazy_and_reused(self):
        pool = EnginePool(max_workers=2)
        assert not pool.healthy
        assert pool.created == 0
        first = pool.executor()
        assert pool.healthy
        assert pool.created == 1
        assert pool.executor() is first     # reused, not recreated
        assert pool.created == 1
        pool.shutdown()
        assert not pool.healthy

    def test_mark_broken_forces_recreation(self):
        pool = EnginePool(max_workers=2)
        first = pool.executor()
        pool.mark_broken()
        assert pool.broken == 1
        assert not pool.healthy
        second = pool.executor()
        assert second is not first
        assert pool.created == 2
        pool.shutdown()

    def test_run_experiment_on_a_shared_pool(self):
        pool = EnginePool(max_workers=2)
        try:
            spec = _spec(jobs=2, workloads=(TinyWorkload(), TinyWorkload()))
            first = run_experiment(spec, pool=pool)
            created_after_first = pool.created
            second = run_experiment(spec, pool=pool)
            assert first["tiny"].task_count == TinyWorkload.chunks
            assert second["tiny"].task_count == TinyWorkload.chunks
            # The second run reused the first run's worker processes.
            assert pool.created == created_after_first <= 1
        finally:
            pool.shutdown()

    def test_shared_pool_recovers_after_a_worker_dies(self, monkeypatch):
        import repro.engine.pool as pool_module

        pool = EnginePool(max_workers=2)
        spec = _spec(jobs=2, workloads=(TinyWorkload(), TinyWorkload()))
        try:
            with monkeypatch.context() as patch:
                patch.setattr(pool_module, "_pool_worker", _dying_worker)
                crashed = run_experiment(spec, pool=pool)
            # The engine fell back to serial, and discarded the executor.
            assert crashed.stats.fallbacks == 2
            assert pool.broken == 1
            recovered = run_experiment(spec, pool=pool)
            assert recovered.stats.parallel_jobs == 2
            assert pool.created == 2
        finally:
            pool.shutdown()
