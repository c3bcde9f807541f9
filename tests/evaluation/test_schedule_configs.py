"""One scheduling loop behind every report: the ``ablate``,
``machines`` and ``trace`` verbs, the headline numbers and run
manifests agree wherever they schedule the same configuration."""

import pytest

from repro import obs
from repro.engine import ExperimentSpec, run_experiment
from repro.evaluation import (
    MANIFEST_CONFIGS,
    ablate_workload,
    build_run_manifest,
    headline_numbers,
    schedule_configs,
)
from repro.evaluation import trace as trace_module
from repro.evaluation.machines import compare_machines
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.timeline import energy_attribution
from repro.sim import MachineConfig

from ..engine.tinywork import TinyWorkload

LABELS = [label for label, _, _ in MANIFEST_CONFIGS]

#: ``spec["key"]`` of the default-machine, scale-1 manifest of tiny.
PINNED_KEY = (
    "f0cf649834ba0ae26952fc9dd29ebacbee5113d5fcdcacf27c746a9d34af6d15"
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(
        ExperimentSpec(workloads=(TinyWorkload(),), cache=False)
    )


@pytest.fixture(scope="module")
def manifest(tiny_result):
    old = set_registry(MetricsRegistry())
    try:
        return build_run_manifest(tiny_result)
    finally:
        set_registry(old)


def _manifest_columns(manifest):
    return {
        label: {"summary": entry["summary"],
                "relative": entry["relative_metrics"]}
        for label, entry in manifest.workloads["tiny"]["schedules"].items()
    }


class TestOneLoop:
    def test_timelines_only_on_request(self, tiny_result):
        run = tiny_result["tiny"]
        bare = schedule_configs(run, MachineConfig())
        recorded = schedule_configs(run, MachineConfig(),
                                    record_timeline=True)
        for (_, plain, _), (_, timed, _) in zip(bare, recorded):
            assert plain.timeline is None
            assert timed.timeline is not None
            assert plain.summary() == timed.summary()

    def test_ablate_at_the_default_llc_is_sandybridge(self, manifest):
        llc_kb = MachineConfig().llc.size_bytes // 1024
        ablated = ablate_workload(TinyWorkload(), "llc_kb", [llc_kb])
        column = compare_machines([TinyWorkload()], ["sandybridge"])[
            "workloads"]["tiny"]["machines"]["sandybridge"]["schedules"]
        assert list(column) == LABELS
        assert ablated["rows"][0]["configs"] == column
        assert column == _manifest_columns(manifest)

    def test_headline_of_one_run_is_the_manifest(self, tiny_result,
                                                 manifest):
        numbers = headline_numbers(tiny_result)
        schedules = manifest.workloads["tiny"]["schedules"]
        auto = schedules["Compiler DAE (Optimal f.)"]["relative_metrics"]
        manual = schedules["Manual DAE (Optimal f.)"]["relative_metrics"]
        # A geomean of one value is exp(log(x)), equal to x to an ulp.
        assert numbers.auto_edp_gain_500ns == pytest.approx(
            1.0 - auto["edp"], rel=1e-12, abs=1e-15)
        assert numbers.manual_edp_gain_500ns == pytest.approx(
            1.0 - manual["edp"], rel=1e-12, abs=1e-15)
        assert numbers.auto_time_penalty_500ns == pytest.approx(
            auto["time"] - 1.0, rel=1e-12, abs=1e-15)

    def test_trace_schedules_are_the_manifests(self, manifest, monkeypatch):
        monkeypatch.setattr(trace_module, "workload_by_name",
                            lambda name: TinyWorkload())
        artifacts = trace_module.trace_workload(
            "tiny", collector=obs.Collector(enabled=True),
        )
        schedules = manifest.workloads["tiny"]["schedules"]
        assert list(artifacts.schedules) == LABELS
        for label, result in artifacts.schedules.items():
            assert result.summary() == schedules[label]["summary"]
            assert energy_attribution(result.timeline) == (
                schedules[label]["energy"])


class TestManifestKey:
    def test_spec_key_is_pinned(self, manifest):
        # The key hashes the spec and [label, stream, run scheme,
        # policy] per manifest configuration: reshaping the table must
        # not move it.
        assert manifest.spec["key"] == PINNED_KEY
