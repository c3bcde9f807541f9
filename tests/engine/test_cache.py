"""Persistent profile cache: hit/miss, keying, explicit invalidation."""

import json

import pytest

from repro.engine import (
    ExperimentSpec,
    ProfileCache,
    cache_key,
    key_material,
    run_experiment,
)
from repro.machines import as_machine
from repro.sim.config import MachineConfig
from repro.transform.access_phase import AccessPhaseOptions

from .tinywork import AltTinyWorkload, TinyWorkload


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _spec(cache_dir, workload=None, **kw):
    return ExperimentSpec(
        workloads=(workload or TinyWorkload(),),
        cache=True, cache_dir=cache_dir, **kw,
    )


class TestCacheRoundTrip:
    def test_cold_then_warm(self, cache_dir):
        cold = run_experiment(_spec(cache_dir))
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == 1
        assert cold.stats.jobs_completed == 1
        assert not cold["tiny"].from_cache

        warm = run_experiment(_spec(cache_dir))
        assert warm.stats.cache_hits == 1
        assert warm.stats.jobs_completed == 0, "warm run must skip profiling"
        assert warm["tiny"].from_cache

    def test_warm_run_is_equivalent(self, cache_dir):
        cold = run_experiment(_spec(cache_dir))["tiny"]
        warm = run_experiment(_spec(cache_dir))["tiny"]
        assert warm.task_count == cold.task_count
        assert set(warm.profiles) == set(cold.profiles)
        for scheme, profile in cold.profiles.items():
            other = warm.profiles[scheme]
            assert len(other.tasks) == len(profile.tasks)
            for a, b in zip(profile.tasks, other.tasks):
                assert a.instance.name == b.instance.name
                assert a.execute.instructions == b.execute.instructions
        assert warm.compiled.affine_loops() == cold.compiled.affine_loops()
        assert warm.compiled.total_loops() == cold.compiled.total_loops()

    def test_machine_name_shares_the_entry(self, cache_dir):
        """``sandybridge`` is the default config under a name: it hits
        the entry a default spec wrote, and ``biglittle`` and ``ideal``
        each write their own."""
        run_experiment(_spec(cache_dir))
        named = run_experiment(_spec(cache_dir, machine="sandybridge"))
        assert (named.stats.cache_hits, named.stats.cache_misses) == (1, 0)
        for name in ("biglittle", "ideal"):
            other = run_experiment(_spec(cache_dir, machine=name))
            assert other.stats.cache_misses == 1, name
        assert ProfileCache(cache_dir).stats().entries == 3

    def test_no_cache_spec_never_touches_disk(self, cache_dir):
        result = run_experiment(ExperimentSpec(
            workloads=(TinyWorkload(),), cache=False, cache_dir=cache_dir,
        ))
        assert result.stats.cache_hits == result.stats.cache_misses == 0
        assert ProfileCache(cache_dir).stats().entries == 0


class TestCacheKeying:
    def _material(self, workload=None, scale=1, config=None, options=None):
        from repro.runtime.task import Scheme
        return key_material(
            workload or TinyWorkload(), scale, as_machine(config),
            options, (Scheme.CAE, Scheme.DAE, Scheme.MANUAL),
        )

    def test_source_change_changes_key(self):
        assert cache_key(self._material()) != cache_key(
            self._material(workload=AltTinyWorkload())
        )

    def test_scale_change_changes_key(self):
        assert cache_key(self._material(scale=1)) != cache_key(
            self._material(scale=2)
        )

    def test_config_change_changes_key(self):
        from dataclasses import replace
        tweaked = replace(MachineConfig(), dvfs_transition_ns=123.0)
        assert cache_key(self._material()) != cache_key(
            self._material(config=tweaked)
        )

    def test_options_change_changes_key(self):
        tweaked = AccessPhaseOptions(hull_threshold=99)
        assert cache_key(self._material()) != cache_key(
            self._material(options=tweaked)
        )

    def test_version_is_part_of_the_key(self, monkeypatch):
        import repro
        before = cache_key(self._material())
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache_key(self._material()) != before

    def test_profiler_options_are_uncacheable(self):
        options = AccessPhaseOptions(profiler=lambda *a, **k: None)
        assert self._material(options=options) is None

    def test_uncacheable_job_recomputes(self, cache_dir):
        spec = _spec(cache_dir, options=AccessPhaseOptions(
            profiler=lambda *a, **k: None,
        ))
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.stats.jobs_completed == 1
        assert second.stats.jobs_completed == 1
        assert ProfileCache(cache_dir).stats().entries == 0


class TestStoredText:
    def test_entry_is_json_dumps_of_its_document(self, cache_dir):
        """A stored entry's bytes are ``json.dumps`` of the entry."""
        run_experiment(_spec(cache_dir))
        cache = ProfileCache(cache_dir)
        [path] = list(cache.root.glob("*.json"))
        doc = json.loads(path.read_text())
        assert set(doc) == {"material", "payload"}
        path.unlink()

        key = cache_key(doc["material"])
        stored = cache.store("tiny", key, doc["material"], doc["payload"])
        assert stored.read_bytes() == json.dumps(doc).encode()
        assert cache.load("tiny", key, doc["material"]) == doc["payload"]


class TestExplicitInvalidation:
    def test_material_mismatch_deletes_entry(self, cache_dir):
        run_experiment(_spec(cache_dir))
        cache = ProfileCache(cache_dir)
        [path] = list(cache.root.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["material"]["scale"] = 777
        path.write_text(json.dumps(doc))

        warm = run_experiment(_spec(cache_dir))
        assert warm.stats.cache_hits == 0
        assert warm.stats.jobs_completed == 1

    def test_corrupt_entry_deleted_and_recomputed(self, cache_dir):
        run_experiment(_spec(cache_dir))
        cache = ProfileCache(cache_dir)
        [path] = list(cache.root.glob("*.json"))
        path.write_text("{not json")

        warm = run_experiment(_spec(cache_dir))
        assert warm.stats.cache_hits == 0
        assert warm.stats.jobs_completed == 1
        # the recompute re-stored a good entry
        assert run_experiment(_spec(cache_dir)).stats.cache_hits == 1


class TestCacheManagement:
    def test_stats_and_clear(self, cache_dir):
        cache = ProfileCache(cache_dir)
        assert cache.stats().entries == 0
        run_experiment(_spec(cache_dir))
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert cache_dir in stats.render()
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_env_var_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ProfileCache()
        assert str(cache.root) == str(tmp_path / "envcache")

    def test_explicit_root_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ProfileCache(str(tmp_path / "explicit"))
        assert str(cache.root) == str(tmp_path / "explicit")
