"""Engine execution strategies: pool fan-out, fallback, determinism, obs."""

import json

import pytest

from repro import obs
from repro.engine import (
    ExperimentSpec,
    run_experiment,
    run_to_payload,
)
from repro.engine import pool as pool_module

from .tinywork import TinyWorkload


def _spec(**kw):
    kw.setdefault("workloads", (TinyWorkload(),))
    kw.setdefault("cache", False)
    return ExperimentSpec(**kw)


def _crashing_worker(payload):
    raise RuntimeError("simulated worker crash")


class TestSerialParallelEquivalence:
    def test_payloads_identical(self):
        """`--jobs N` must be byte-identical to `--jobs 1`.

        On platforms where the pool cannot start, the parallel spec
        degrades to the serial path — the equality below then holds
        trivially, which is exactly the contract.
        """
        serial = run_experiment(_spec(jobs=1))
        parallel = run_experiment(_spec(jobs=2, workloads=(
            TinyWorkload(), TinyWorkload(),
        )))
        assert run_to_payload(serial["tiny"]) == run_to_payload(
            parallel["tiny"]
        )

    def test_machine_spec_payloads_identical(self):
        """The pool payload carries the spec's machine model itself."""
        serial = run_experiment(_spec(machine="biglittle"))
        parallel = run_experiment(_spec(
            machine="biglittle", jobs=2,
            workloads=(TinyWorkload(), TinyWorkload()),
        ))
        assert parallel.stats.parallel_jobs == 2
        assert parallel.stats.fallbacks == 0
        assert (json.dumps(run_to_payload(serial["tiny"]), sort_keys=True)
                == json.dumps(run_to_payload(parallel["tiny"]),
                              sort_keys=True))

    def test_deterministic_spec_ordering(self):
        result = run_experiment(ExperimentSpec(
            workloads=("cholesky", "cg"), scale=1, jobs=1, cache=False,
        ))
        assert list(result) == ["cholesky", "cg"]


class TestFallback:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def broken_executor(*a, **k):
            raise OSError("no forking here")
        monkeypatch.setattr(pool_module, "_new_executor", broken_executor)
        result = run_experiment(_spec(
            jobs=4, workloads=(TinyWorkload(), TinyWorkload()),
        ))
        assert result.stats.fallbacks == 2
        assert result.stats.serial_jobs == 2
        assert result.stats.parallel_jobs == 0
        assert result["tiny"].task_count == TinyWorkload.chunks

    def test_worker_crash_retries_then_falls_back(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_pool_worker", _crashing_worker)
        result = run_experiment(_spec(
            jobs=2, workloads=(TinyWorkload(), TinyWorkload()),
        ))
        # Both jobs completed despite every pool attempt crashing.
        assert result.stats.jobs_completed == 2
        assert result.stats.parallel_jobs == 0
        assert result.stats.serial_jobs == 2
        assert result.stats.fallbacks == 2
        assert result.stats.retries >= 1
        run = result["tiny"]
        assert set(run.profiles) == {"cae", "dae", "manual"}

    def test_single_pending_job_runs_serially(self):
        result = run_experiment(_spec(jobs=8))
        assert result.stats.parallel_jobs == 0
        assert result.stats.serial_jobs == 1


class TestObservability:
    def test_cache_hit_counter_proves_warm_skip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiment(_spec(cache=True, cache_dir=cache_dir))

        collector = obs.Collector(enabled=True)
        with obs.collecting(collector):
            warm = run_experiment(_spec(cache=True, cache_dir=cache_dir))
        assert warm.stats.jobs_completed == 0

        hits = collector.select(name="engine.cache.hit")
        assert len(hits) == 1
        assert hits[0].args["workload"] == "tiny"
        scheduled = collector.select(name="engine.job.scheduled")
        assert scheduled == []
        counters = {
            e.name: e.value
            for e in collector.events() if e.kind == "counter"
        }
        assert counters["engine.cache_hits"] == 1
        assert counters["engine.jobs_completed"] == 0

    def test_run_span_carries_stats(self):
        collector = obs.Collector(enabled=True)
        with obs.collecting(collector):
            run_experiment(_spec())
        [span] = [
            e for e in collector.events()
            if e.name == "engine.run" and e.kind == "span"
        ]
        assert span.args["jobs_completed"] == 1
        assert span.args["cache"] is False


class TestTaskCountConsistency:
    def test_cross_scheme_mismatch_raises(self, monkeypatch):
        from repro.engine.products import EngineError, profile_workload

        workload = TinyWorkload()
        original_build = TinyWorkload.build
        counts = iter([1, 2, 2])

        def unstable_build(self, memory, scale, kinds):
            instances = original_build(self, memory, scale, kinds)
            return instances[: next(counts)]

        monkeypatch.setattr(TinyWorkload, "build", unstable_build)
        with pytest.raises(EngineError, match="deterministic across schemes"):
            profile_workload(workload)
