"""Trace-backed machine-config ablation sweeps (`repro.evaluation ablate`)."""

import json

import pytest

from repro.evaluation import (
    ABLATE_CONFIGS,
    SWEEP_PARAMS,
    ablate_workload,
    render_ablation_report,
)
from repro.sim import MachineConfig
from repro.sim.config import MachineConfigError

from ..engine.tinywork import TinyWorkload


@pytest.fixture(scope="module")
def report():
    return ablate_workload(TinyWorkload(), "mem_ns", [40.0, 65.0, 120.0])


class TestAblateWorkload:
    def test_report_shape(self, report):
        assert report["workload"] == "tiny"
        assert report["param"] == "mem_ns"
        assert report["values"] == [40.0, 65.0, 120.0]
        assert len(report["rows"]) == 3
        labels = [label for label, _, _ in ABLATE_CONFIGS]
        for row in report["rows"]:
            assert sorted(row["configs"]) == sorted(labels)
            for entry in row["configs"].values():
                assert entry["summary"]["time_s"] > 0
                assert entry["relative"]["edp"] > 0

    def test_variants_resimulated_by_replay(self, report):
        assert report["replayed"] is True
        assert report["recorded_phases"] > 0
        assert report["recorded_events"] > 0

    def test_report_is_json_able(self, report):
        json.dumps(report)

    def test_slower_dram_never_speeds_up_cae(self, report):
        times = [
            row["configs"]["CAE (Max f.)"]["summary"]["time_s"]
            for row in report["rows"]
        ]
        assert times == sorted(times)

    def test_base_value_matches_direct_run(self, report):
        # The 65 ns row replays under a config equal to the default —
        # its schedule must match an ablation run that starts there.
        direct = ablate_workload(
            TinyWorkload(), "mem_ns", [65.0], config=MachineConfig()
        )
        base_row = next(r for r in report["rows"] if r["value"] == 65.0)
        assert base_row["configs"] == direct["rows"][0]["configs"]

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            ablate_workload(TinyWorkload(), "branch_predictor", [1])

    @pytest.mark.parametrize("param,value", [
        ("llc_kb", 0), ("l1_kb", 0.1), ("mlp_demand", 0), ("l1_lat", 0),
    ])
    def test_invalid_variant_rejected_before_recording(self, param, value,
                                                       monkeypatch):
        import repro.evaluation.ablation as ablation

        def no_recording(*args, **kwargs):
            raise AssertionError("recorded before validating")

        monkeypatch.setattr(ablation, "MachineSweep", no_recording)
        with pytest.raises(MachineConfigError,
                           match="%s=%g" % (param, value)):
            ablate_workload(TinyWorkload(), param, [48, value])

    def test_cache_capacity_builder_scales_bytes(self):
        _, build = SWEEP_PARAMS["llc_kb"]
        variant = build(MachineConfig(), 8)
        assert variant.llc.size_bytes == 8 * 1024
        assert variant.llc.sets == 8       # derived geometry recomputed
        assert variant.l1 == MachineConfig().l1


class TestAblateCli:
    @pytest.mark.parametrize("param,value", [
        ("llc_kb", "0"), ("l1_kb", "0.1"), ("mlp_demand", "0"),
        ("l1_lat", "0"),
        # Not finite: int() of NaN raised ValueError, int() of inf (or
        # of 1e400, which parses as inf) OverflowError; mem_ns=nan
        # passed every <= 0 check and mlp_demand=inf printed a report.
        ("llc_kb", "nan"), ("llc_kb", "inf"), ("llc_kb", "1e400"),
        ("l1_lat", "nan"), ("mem_ns", "nan"), ("mlp_demand", "inf"),
    ])
    def test_invalid_variant_exits_2_naming_it(self, param, value,
                                               capsys):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "cg", "--vary", param, "--values", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "%s=%g" % (param, float(value)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--no-cache"], ["--cache-dir", "cache"],
        ["--trace", "t.json"], ["--events", "e.jsonl"],
        ["--interp", "reference"],
    ], ids=lambda flag: flag[0])
    def test_unread_engine_flags_exit_2(self, flag, tmp_path, monkeypatch,
                                        capsys):
        from repro.evaluation.__main__ import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "cigar", "--vary", "llc_kb", "--values", "12",
                  *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


class TestRenderAblationReport:
    def test_mentions_replay_and_all_values(self, report):
        text = render_ablation_report(report)
        assert "trace replay" in text
        assert "| mem_ns |" in text
        for value in (40, 65, 120):
            assert "| %g |" % value in text
