"""End-to-end ``tune_workload`` behaviour: determinism, caching, policy
installation, observability."""

import json

import pytest

from repro import obs
from repro.power.frequency import FrequencyPolicy
from repro.sim.config import MachineConfig
from repro.tuning import (
    STRATEGIES,
    TunedPolicy,
    install_tuned_policy,
    tune_workload,
)
from ..engine.tinywork import TinyWorkload


def _tune(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return tune_workload(TinyWorkload(), **kwargs)


class TestTuneWorkload:
    def test_all_strategies_run_and_agree_on_a_best(self, tmp_path):
        result = _tune(tmp_path)
        assert result.strategy == "all"
        assert [s.name for s in result.strategies] \
            == ["phase-local"] + list(STRATEGIES)[1:]
        assert result.best.pair is not None
        assert result.best.feasible
        # The exhaustive scan saw every pair, so nothing beats the best.
        assert all(result.best.value <= c.value
                   for c in result.candidates)

    def test_exhaustive_covers_the_full_grid(self, tmp_path):
        result = _tune(tmp_path, strategy="exhaustive")
        points = len(MachineConfig().operating_points)
        assert len(result.candidates) == points ** 2
        # The row names the joint minimum, ties to the lowest pair.
        row = result.strategies[-1]
        best = min(result.candidates, key=lambda c: (c.value, c.pair.key))
        assert (row.name, row.evaluations) == ("exhaustive", points ** 2)
        assert (row.best_label, row.best_value) == (best.label, best.value)

    def test_all_infeasible_exhaustive_falls_back_to_the_lowest_pair(self):
        # No schedule meets a femtosecond deadline.
        result = tune_workload(
            TinyWorkload(), objective="energy-under-deadline@1e-15",
            strategy="exhaustive", cache=False, install=False,
        )
        assert not any(c.feasible for c in result.candidates)
        row = {s.name: s for s in result.strategies}["exhaustive"]
        assert row.evaluations == 36
        assert row.best_label == result.best.label == "A1.6/E1.6"
        assert row.as_dict()["value"] is None
        assert not result.installed

    def test_unknown_strategy_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="unknown strategy"):
            _tune(tmp_path, strategy="simulated-annealing")
        # Heterogeneous machines validate too, before any profiling.
        import repro.tuning.tuner as tuner

        def no_profiling(*args, **kwargs):
            raise AssertionError("profiled before validating")

        monkeypatch.setattr(tuner, "profile_workload", no_profiling)
        with pytest.raises(ValueError, match="unknown strategy"):
            _tune(tmp_path, machine="biglittle", strategy="bogus",
                  cache=False, install=False)

    def test_front_is_consistent_with_candidates(self, tmp_path):
        result = _tune(tmp_path)
        labels = {c.label for c in result.candidates} | {"phase-local"}
        assert result.front
        assert {p.label for p in result.front} <= labels

    def test_references_include_named_policies(self, tmp_path):
        result = _tune(tmp_path)
        assert set(result.references) \
            == {"policy:minmax", "policy:fmin", "policy:fmax"}


class TestDeterminismAndCache:
    def test_warm_rerun_recomputes_nothing(self, tmp_path):
        cold = _tune(tmp_path)
        assert cold.stats.schedule_evals == cold.stats.requests
        warm = _tune(tmp_path)
        # No re-profile: the engine served the profiles from cache...
        assert warm.stats.engine["jobs_completed"] == 0
        assert warm.stats.engine["cache_hits"] == 1
        # ...and no re-schedule: every candidate hit the tuning cache.
        assert warm.stats.schedule_evals == 0
        assert warm.stats.cache_hits == warm.stats.requests
        assert json.dumps(cold.as_dict(), sort_keys=True) \
            == json.dumps(warm.as_dict(), sort_keys=True)

    def test_no_cache_mode_still_works(self, tmp_path):
        result = _tune(tmp_path, cache=False)
        assert result.stats.cache_hits == 0
        assert result.stats.schedule_evals == result.stats.requests


class TestPolicyInstallation:
    def test_tuned_resolves_after_tuning(self, tmp_path):
        with pytest.raises(ValueError, match="no tuning result"):
            FrequencyPolicy.from_name("tuned")
        result = _tune(tmp_path)
        assert result.installed
        policy = FrequencyPolicy.from_name("tuned")
        assert isinstance(policy, TunedPolicy)
        assert policy.pair.key == result.best.pair.key

    def test_install_false_leaves_registry_untouched(self, tmp_path):
        result = _tune(tmp_path, install=False)
        assert not result.installed
        with pytest.raises(ValueError, match="no tuning result"):
            FrequencyPolicy.from_name("tuned")

    def test_infeasible_objective_is_not_installed(self, tmp_path):
        result = _tune(
            tmp_path, objective="energy-under-deadline@1e-15",
        )
        assert not result.best.feasible
        assert not result.installed
        with pytest.raises(ValueError, match="no tuning result"):
            FrequencyPolicy.from_name("tuned")

    def test_reinstall_overwrites(self, tmp_path):
        _tune(tmp_path)
        config = MachineConfig()
        replacement = TunedPolicy(config.fmax, config.fmax)
        install_tuned_policy(replacement)
        assert FrequencyPolicy.from_name("tuned") is replacement


class TestObservability:
    def test_tuning_events_are_emitted(self, tmp_path):
        collector = obs.Collector(enabled=True)
        with obs.collecting(collector):
            result = _tune(tmp_path)
        spans = collector.select(name="tuning.run")
        assert len(spans) == 1
        assert spans[0].args["workload"] == "tiny"
        searches = collector.select(name="tuning.search")
        assert [s.args["strategy"] for s in searches] \
            == [s.name for s in result.strategies]
        counters = {e.name for e in collector.select(cat="tuning.stats")}
        assert "tuning.evaluations" in counters
        candidates = collector.select(name="tuning.candidate")
        assert len(candidates) == result.stats.schedule_evals

    def test_warm_rerun_emits_cache_hits_only(self, tmp_path):
        _tune(tmp_path)
        collector = obs.Collector(enabled=True)
        with obs.collecting(collector):
            result = _tune(tmp_path)
        hits = collector.select(name="tuning.cache.hit")
        assert len(hits) == result.stats.requests
        assert not collector.select(name="tuning.cache.miss")
        assert not collector.select(name="tuning.candidate")
