"""The ``machines`` verb: one recording per workload, every machine
replayed from it, manifest projection for the run-ledger gate."""

import json

import pytest

from repro.engine.products import (
    ALL_SCHEMES,
    profile_workload,
    run_to_payload,
)
from repro.evaluation.ablation import SWEEP_PARAMS
from repro.evaluation.experiments import MANIFEST_CONFIGS
from repro.evaluation.machines import (
    MachineSweep,
    compare_machines,
    machines_manifest,
    render_machines_report,
)
from repro.machines import MachineModel, homogeneous_machine
from repro.machines import replay as machine_replay
from repro.obs.ledger import RunManifest, compare_runs
from repro.power.frequency import FrequencyPolicy
from repro.runtime import DAEScheduler
from repro.sim import MachineConfig

from ..engine.tinywork import TinyWorkload

MACHINES = ["sandybridge", "biglittle", "ideal"]
LABELS = [label for label, _, _, _ in MANIFEST_CONFIGS]


@pytest.fixture(scope="module")
def report():
    return compare_machines([TinyWorkload()], MACHINES)


class TestReportShape:
    def test_top_level(self, report):
        assert report["kind"] == "machines"
        assert report["scale"] == 1
        assert report["machines"] == MACHINES
        assert list(report["workloads"]) == ["tiny"]

    def test_recorded_once_and_replayed(self, report):
        doc = report["workloads"]["tiny"]
        assert doc["replayed"] is True
        assert doc["recorded_phases"] > 0
        assert doc["recorded_events"] > 0
        for name in MACHINES:
            column = doc["machines"][name]
            assert column["source"] == "replay"
            assert list(column["schedules"]) == LABELS

    def test_biglittle_column_carries_migrations(self, report):
        schedules = report["workloads"]["tiny"]["machines"]["biglittle"][
            "schedules"]
        dae = schedules["Compiler DAE (Optimal f.)"]["summary"]
        assert dae["machine"] == "biglittle"
        assert dae["placement"] == {"access": "little", "execute": "big"}
        assert dae["migrations"] > 0
        # Coupled runs pin to the big cluster: no machine annotations.
        cae = schedules["CAE (Max f.)"]["summary"]
        assert "machine" not in cae

    def test_relative_metrics_are_vs_own_cae(self, report):
        for name in MACHINES:
            schedules = report["workloads"]["tiny"]["machines"][name][
                "schedules"]
            relative = schedules["CAE (Max f.)"]["relative"]
            assert relative == {"time": 1.0, "energy": 1.0, "edp": 1.0}

    def test_sandybridge_column_matches_direct_schedule(self, report):
        config = MachineConfig()
        run = profile_workload(
            TinyWorkload(), 1, config, schemes=ALL_SCHEMES, interp="replay",
        )
        for label, stream, run_scheme, policy_name in MANIFEST_CONFIGS:
            policy = FrequencyPolicy.from_name(policy_name, config)
            direct = DAEScheduler(config).run(
                run.profiles[stream.value].tasks, run_scheme, policy,
            )
            column = report["workloads"]["tiny"]["machines"]["sandybridge"]
            assert column["schedules"][label]["summary"] == direct.summary()


class TestSweepReplaysOnlyWhatChanged:
    """Each variant of a sweep equals a full re-profile on its machine,
    while the store runs one private pass per (scheme, private
    geometry) and keeps a pass only while a later machine reuses it."""

    #: Two tasks on two slots stream one 16 KiB array: the second
    #: task's reads hit a 24 KiB LLC and miss a 12 KiB one.
    SCALE = 128

    def _variant(self, param, value):
        build = SWEEP_PARAMS[param][1]
        return homogeneous_machine("%s=%g" % (param, value),
                                   build(MachineConfig(), value))

    def test_variants_match_reprofiles_and_share_passes(self,
                                                        monkeypatch):
        passes = []
        private_pass = machine_replay._private_pass

        def counted(*args):
            passes.append(args)
            return private_pass(*args)

        monkeypatch.setattr(machine_replay, "_private_pass", counted)
        variants = [
            # (machine, new private passes, passes kept after it);
            # 3 schemes.  The recording's passes serve the default
            # private geometry.
            (self._variant("llc_kb", 12), 0, 3),
            (self._variant("llc_kb", 48), 0, 3),
            (self._variant("llc_kb", 24), 0, 3),   # the default LLC
            (self._variant("l1_kb", 1), 3, 3),
            (self._variant("l1_kb", 4), 3, 3),
            (self._variant("mem_ns", 40), 0, 3),
            (self._variant("mem_ns", 120), 0, 3),
            (MachineModel.from_name("biglittle"), 3, 3),
            # The default geometry again, after another machine's.
            (MachineModel.from_name("ideal"), 0, 0),
        ]
        sweep = MachineSweep(TinyWorkload(), self.SCALE)
        assert len(passes) == 3   # the recording counts each scheme
        passes.clear()
        store = sweep.store
        machines = [machine for machine, _, _ in variants]
        payloads = []
        for (machine, new, kept), run in zip(variants,
                                             sweep.runs(machines)):
            assert len(passes) == new, machine.name
            assert len(store.private_stages) == kept, machine.name
            payload = run_to_payload(run)
            # Every profile is counted by machine replay, so this
            # checks the memo against a fresh recording by the
            # reference core; tests/machines/test_result_pins.py pins
            # biglittle's result.
            reprofiled = profile_workload(
                TinyWorkload(), self.SCALE, schemes=ALL_SCHEMES,
                machine=machine, interp="reference",
            )
            assert payload == run_to_payload(reprofiled), machine.name
            passes.clear()   # the re-profile counts by replay too
            payloads.append(payload["profiles"])
        # The LLC size changes counts, so the equalities above are not
        # vacuous; the DRAM-latency variants reuse the default LLC's.
        assert payloads[0] != payloads[2]
        assert payloads[5] == payloads[6] == payloads[8] == payloads[2]


class TestManifestProjection:
    def test_round_trips_and_self_compares_clean(self, report):
        doc = machines_manifest(report, "sandybridge")
        manifest = RunManifest.from_dict(doc)
        assert manifest.run_id == "machines-sandybridge"
        assert manifest.kind == "machines"
        assert list(manifest.workloads["tiny"]["schedules"]) == LABELS
        comparison = compare_runs(manifest, RunManifest.from_dict(doc))
        assert comparison.ok
        assert comparison.identical

    def test_manifest_spec_names_the_projection(self, report):
        doc = machines_manifest(report, "sandybridge")
        assert doc["workloads"]["tiny"]["from_cache"] is False
        assert doc["spec"]["machine"] == "sandybridge"
        assert doc["spec"]["machines"] == MACHINES


class TestRendering:
    def test_report_mentions_provenance_and_machines(self, report):
        text = render_machines_report(report)
        assert "zero re-interpretation" in text
        for name in MACHINES:
            assert name in text
        assert "little->big" in text


class TestCLI:
    def test_machines_verb_writes_report_and_manifest(self, tmp_path,
                                                      capsys):
        from repro.evaluation.__main__ import main

        out = tmp_path / "report.json"
        manifest_out = tmp_path / "manifest.json"
        rc = main([
            "machines", "cg", "--machines", "sandybridge",
            "--out", str(out), "--manifest-out", str(manifest_out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["machines"] == ["sandybridge"]
        manifest = RunManifest.from_dict(
            json.loads(manifest_out.read_text()))
        assert manifest.run_id == "machines-sandybridge"
        assert "cg" in manifest.workloads
        assert "Machine comparison" in capsys.readouterr().out

    def test_unknown_machine_is_a_usage_error(self):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit):
            main(["machines", "cg", "--machines", "cray1"])

    def test_manifest_machine_must_be_compared(self, tmp_path):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit):
            main([
                "machines", "cg", "--machines", "ideal",
                "--manifest-out", str(tmp_path / "m.json"),
            ])

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
            main(["machines", "cigar", "--machines", "sandybridge", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []
