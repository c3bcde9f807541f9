"""The ``python -m repro.evaluation tune`` verb and its artifacts."""

import json

import pytest

from repro.evaluation.__main__ import main
from repro.evaluation.tuning import render_tuning_report
from repro.tuning import tune_workload


class TestTuneVerb:
    def test_writes_report_and_json(self, tmp_path, tuning_cache_dir,
                                    dae_runs, capsys):
        prefix = str(tmp_path / "cg")
        code = main([
            "tune", "cg", "--cache-dir", tuning_cache_dir,
            "--out", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Tuning report: cg" in out
        report = (tmp_path / "cg-tuning.md").read_text()
        assert "## Pareto front" in report
        doc = json.loads((tmp_path / "cg-tuning.json").read_text())
        assert doc["workload"] == "cg"
        assert doc["best"]["feasible"] is True
        assert {s["name"] for s in doc["strategies"]} \
            == {"phase-local", "exhaustive", "golden", "descent"}

    def test_missing_app_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune"])
        assert "workload name" in capsys.readouterr().err

    def test_unknown_app_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "nope"])
        assert "unknown workload" in capsys.readouterr().err


class TestReportRendering:
    def test_report_is_deterministic_for_a_result(self, tmp_path,
                                                  tuning_cache_dir,
                                                  dae_runs):
        result = tune_workload(
            "cg", cache_dir=tuning_cache_dir, install=False,
        )
        assert render_tuning_report(result) == render_tuning_report(result)

    def test_report_marks_infeasible_runs(self, tmp_path,
                                          tuning_cache_dir, dae_runs):
        result = tune_workload(
            "cg", objective="energy-under-deadline@1e-15",
            cache_dir=tuning_cache_dir, install=False,
        )
        report = render_tuning_report(result)
        assert "infeasible" in report
        assert "tuned policy installed: no" in report
