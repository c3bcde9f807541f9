"""Run manifests, the ledger CLI, and the regression gate end to end."""

import json

import pytest

from repro.engine import ExperimentSpec, run_experiment
from repro.evaluation import MANIFEST_CONFIGS, build_run_manifest, record_run
from repro.evaluation.__main__ import main
from repro.evaluation.machines import compare_machines
from repro.obs.ledger import RunLedger, compare_runs
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.workloads import workload_by_name

from ..engine.tinywork import TinyWorkload


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate the process-global metrics registry per test."""
    old = set_registry(MetricsRegistry())
    yield
    set_registry(old)


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(
        ExperimentSpec(workloads=(TinyWorkload(),), cache=False)
    )


class TestBuildManifest:
    def test_shape(self, tiny_result):
        manifest = build_run_manifest(tiny_result)
        assert manifest.kind == "engine"
        assert list(manifest.workloads) == ["tiny"]
        entry = manifest.workloads["tiny"]
        assert entry["task_count"] == 2
        assert entry["from_cache"] is False
        labels = [row[0] for row in MANIFEST_CONFIGS]
        assert list(entry["schedules"]) == labels
        assert manifest.spec["key"]
        assert manifest.stats["jobs_completed"] == 1

    def test_baseline_relative_metrics_are_unity(self, tiny_result):
        manifest = build_run_manifest(tiny_result)
        baseline_label = MANIFEST_CONFIGS[0][0]
        schedules = manifest.workloads["tiny"]["schedules"]
        assert schedules[baseline_label]["relative_metrics"] == {
            "time": 1.0, "energy": 1.0, "edp": 1.0,
        }
        for entry in schedules.values():
            for value in entry["relative_metrics"].values():
                assert value > 0.0

    def test_energy_tree_matches_summary(self, tiny_result):
        manifest = build_run_manifest(tiny_result)
        for entry in manifest.workloads["tiny"]["schedules"].values():
            tree = entry["energy"]
            summary = entry["summary"]
            assert tree["energy_nj"] * 1e-9 == pytest.approx(
                summary["energy_j"], rel=1e-9,
            )
            assert tree["tasks"]
        # The manifest is valid JSON end to end.
        json.dumps(manifest.to_dict())

    def test_engine_telemetry_rides_along(self):
        # A fresh run under the fresh per-test registry: the serial job
        # must have observed into engine.pool.job_ms and the cache
        # gauge (cache disabled -> no probes, so only job_ms here).
        result = run_experiment(
            ExperimentSpec(workloads=(TinyWorkload(),), cache=False)
        )
        manifest = build_run_manifest(result)
        job_ms = manifest.metrics["engine.pool.job_ms"]
        assert job_ms["kind"] == "histogram"
        assert job_ms["count"] == 1
        assert job_ms["sum"] > 0.0

    def test_cache_hit_rate_gauge(self, tmp_path):
        spec = ExperimentSpec(
            workloads=(TinyWorkload(),), cache=True,
            cache_dir=str(tmp_path),
        )
        run_experiment(spec)   # cold: miss
        result = run_experiment(spec)  # warm: hit
        manifest = build_run_manifest(result)
        gauge = manifest.metrics["engine.cache.hit_rate"]
        assert gauge == {"kind": "gauge", "value": 1.0}


class TestManifestMachine:
    """A manifest schedules each run on the machine that profiled it."""

    def test_biglittle_manifest_is_the_machines_verb_column(self):
        cg = workload_by_name("cg")
        manifest = build_run_manifest(run_experiment(ExperimentSpec(
            workloads=(cg,), machine="biglittle", cache=False,
        )))
        column = compare_machines([cg], ["biglittle"])["workloads"]["cg"][
            "machines"]["biglittle"]["schedules"]
        schedules = manifest.workloads["cg"]["schedules"]
        assert list(schedules) == list(column)
        for label, entry in schedules.items():
            assert entry["summary"] == column[label]["summary"], label
            assert entry["relative_metrics"] == column[label]["relative"]
        dae = schedules["Compiler DAE (Optimal f.)"]["summary"]
        assert dae["placement"] == {"access": "little", "execute": "big"}

    def test_spec_key_and_document_name_the_machine(self):
        keys = set()
        for machine, name in ((None, "homogeneous"),
                              ("biglittle", "biglittle"),
                              ("ideal", "ideal")):
            manifest = build_run_manifest(run_experiment(ExperimentSpec(
                workloads=(TinyWorkload(),), machine=machine, cache=False,
            )))
            assert manifest.spec["machine"] == name
            keys.add(manifest.spec["key"])
        assert len(keys) == 3


class TestRecordAndCompare:
    def test_same_spec_compares_clean(self, tiny_result, tmp_path):
        ledger = RunLedger(tmp_path)
        first, _ = record_run(tiny_result, ledger=ledger)
        second, _ = record_run(tiny_result, ledger=ledger)
        assert first.run_id != second.run_id
        comparison = compare_runs(
            ledger.load(first.run_id), ledger.load(second.run_id)
        )
        assert comparison.identical
        assert comparison.ok

    def test_record_accepts_a_path(self, tiny_result, tmp_path):
        manifest, path = record_run(tiny_result, ledger=str(tmp_path))
        assert path.parent == tmp_path
        assert RunLedger(tmp_path).load("latest").run_id == manifest.run_id


def _inflate(manifest_path, out_path, factor=1.10):
    doc = json.loads(manifest_path.read_text())
    for workload in doc["workloads"].values():
        for entry in workload["schedules"].values():
            entry["summary"]["energy_j"] *= factor
            entry["summary"]["edp_js"] *= factor
    out_path.write_text(json.dumps(doc))
    return out_path


class TestRunsCLI:
    @pytest.fixture()
    def ledger_with_run(self, tiny_result, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        manifest, path = record_run(tiny_result, ledger=ledger)
        return ledger, manifest, path

    def test_list(self, ledger_with_run, capsys):
        ledger, manifest, _ = ledger_with_run
        assert main(["runs", "list", "--ledger-dir", str(ledger.root)]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert "tiny" in out

    def test_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", "--ledger-dir", str(tmp_path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show(self, ledger_with_run, capsys):
        ledger, manifest, _ = ledger_with_run
        assert main([
            "runs", "show", "latest", "--ledger-dir", str(ledger.root),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == manifest.run_id

    def test_show_unknown_ref_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["runs", "show", "nope", "--ledger-dir", str(tmp_path)])

    def test_compare_identical_exits_zero(self, tiny_result,
                                          ledger_with_run, capsys):
        ledger, manifest, _ = ledger_with_run
        record_run(tiny_result, ledger=ledger)
        code = main([
            "runs", "compare", manifest.run_id, "latest",
            "--ledger-dir", str(ledger.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out

    def test_compare_inflated_energy_exits_nonzero(self, ledger_with_run,
                                                   tmp_path, capsys):
        ledger, manifest, path = ledger_with_run
        inflated = _inflate(path, tmp_path / "inflated.json")
        code = main([
            "runs", "compare", manifest.run_id, str(inflated),
            "--ledger-dir", str(ledger.root),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "**REGRESSION**" in out
        assert "**FAIL**" in out
        assert "+10.00%" in out

    def test_compare_threshold_flag(self, ledger_with_run, tmp_path):
        ledger, manifest, path = ledger_with_run
        inflated = _inflate(path, tmp_path / "inflated.json")
        assert main([
            "runs", "compare", manifest.run_id, str(inflated),
            "--ledger-dir", str(ledger.root), "--threshold", "15",
        ]) == 0

    def test_compare_metric_subset(self, ledger_with_run, tmp_path):
        ledger, manifest, path = ledger_with_run
        inflated = _inflate(path, tmp_path / "inflated.json")
        assert main([
            "runs", "compare", manifest.run_id, str(inflated),
            "--ledger-dir", str(ledger.root), "--metrics", "time",
        ]) == 0
        with pytest.raises(SystemExit):
            main([
                "runs", "compare", manifest.run_id, str(inflated),
                "--ledger-dir", str(ledger.root), "--metrics", "bogus",
            ])

    def test_record_rejects_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "runs", "record", "bogus",
                "--ledger-dir", str(tmp_path), "--no-cache",
            ])

    def test_record_cli_round_trip(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "runs")
        out_path = str(tmp_path / "manifest.json")
        assert main([
            "runs", "record", "cigar", "--no-cache",
            "--ledger-dir", ledger_dir, "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded " in out
        doc = json.loads(open(out_path).read())
        assert list(doc["workloads"]) == ["cigar"]
        manifest = RunLedger(ledger_dir).load("latest")
        assert list(manifest.workloads) == ["cigar"]
