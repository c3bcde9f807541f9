"""The evaluation CLI and the top-level public API."""

import os

import pytest

import repro
from repro.evaluation.__main__ import main


class TestCLI:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "lu_block" in out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "classes detected" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_trace_requires_app(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["trace", "bogus"])

    def test_app_argument_rejected_for_other_experiments(self):
        with pytest.raises(SystemExit):
            main(["figure1", "cholesky"])

    def test_interp_flag_leaves_the_environment_alone(self, capsys):
        before = dict(os.environ)
        assert main(["figure1", "--interp", "reference"]) == 0
        assert dict(os.environ) == before

    @pytest.mark.parametrize("argv", [
        ["trace", "cigar", "--interp", "reference"],
        ["trace", "cigar", "--jobs", "2"],
        ["trace", "cigar", "--no-cache"],
        ["trace", "cigar", "--cache-dir", "cache"],
        ["fuzz", "run", "--interp", "reference"],
        ["fuzz", "replay", "--interp", "reference"],
        ["runs", "record", "cigar", "--trace", "t.json"],
        ["runs", "record", "cigar", "--events", "e.jsonl"],
        ["tune", "cg", "--jobs", "2"],
        ["serve", "--attempts", "3"],
        ["submit", "cg", "--tune", "--jobs", "2"],
        ["submit", "cg", "--objective", "energy"],
        ["submit", "cg", "--strategy", "golden"],
    ], ids=" ".join)
    def test_flags_only_where_they_are_read(self, argv, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_event_log_flags(self, capsys, tmp_path):
        import json

        trace_path = str(tmp_path / "f1.trace.json")
        events_path = str(tmp_path / "f1.events.jsonl")
        assert main(["figure1", "--trace", trace_path,
                     "--events", events_path]) == 0
        doc = json.load(open(trace_path))
        assert isinstance(doc["traceEvents"], list)
        for line in open(events_path):
            assert json.loads(line)["name"]

    def test_shared_flags_accepted_by_every_experiment(self):
        # the shared parent parser must make these parse (not run) everywhere
        from repro.evaluation.__main__ import _build_parser

        parser = _build_parser()
        for experiment in (["table1"], ["figure1"], ["figure2"],
                           ["figure3"], ["figure4"], ["headline"], ["all"],
                           ["runs", "record"]):
            args = parser.parse_args(
                experiment + ["--scale", "2", "--jobs", "3", "--no-cache",
                              "--cache-dir", "/tmp/x",
                              "--interp", "reference"]
            )
            assert (args.scale, args.jobs, args.no_cache) == (2, 3, True)
            assert args.interp == "reference"
        # tune profiles one workload, so it takes all of them but --jobs.
        args = parser.parse_args(
            ["tune", "cg", "--scale", "2", "--no-cache", "--cache-dir",
             "/tmp/x", "--interp", "reference"]
        )
        assert (args.scale, args.no_cache, args.interp) \
            == (2, True, "reference")

    def test_cache_stats_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:       0" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cache_requires_verb(self):
        with pytest.raises(SystemExit):
            main(["cache"])
        with pytest.raises(SystemExit):
            main(["cache", "defrag"])


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_quickstart_docstring_flow(self):
        module = repro.compile_source(
            "task t(A: f64*, n: i64) { var i: i64;"
            " for (i = 0; i < n; i = i + 1) { A[i] = A[i] + 1.0; } }"
        )
        repro.optimize_module(module)
        result = repro.generate_access_phase(
            module.function("t"), module=module
        )
        assert result.method == "affine"
        assert "t_access" in module.functions

    def test_module_level_generation(self):
        module = repro.compile_source(
            "task a(A: f64*) { A[0] = 1.0; }"
            "task b(B: f64*) { B[1] = B[1] * 2.0; }"
        )
        repro.optimize_module(module)
        results = repro.generate_module_access_phases(module)
        assert set(results) == {"a", "b"}

    def test_machine_configs(self):
        scaled = repro.MachineConfig()
        full = repro.sandybridge_full()
        assert full.l1.size_bytes > scaled.l1.size_bytes
        assert full.operating_points == scaled.operating_points


class TestStableApiFacade:
    """``repro.api`` is the stability contract: every documented name
    importable, and identical to its deep-module definition."""

    def test_every_declared_name_resolves(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_facade_values_are_the_deep_imports(self):
        from repro import api
        from repro.engine.jobs import submit_experiment
        from repro.engine.pool import EnginePool, run_experiment
        from repro.engine.products import profile_workload
        from repro.engine.spec import ExperimentSpec
        from repro.obs.ledger import compare_runs
        from repro.service.client import ServiceClient
        from repro.tuning import tune_workload

        assert api.run_experiment is run_experiment
        assert api.submit_experiment is submit_experiment
        assert api.ExperimentSpec is ExperimentSpec
        assert api.EnginePool is EnginePool
        assert api.profile is profile_workload
        assert api.tune is tune_workload
        assert api.compare_runs is compare_runs
        assert api.ServiceClient is ServiceClient

    def test_facade_covers_the_documented_tasks(self):
        from repro import api

        # describe / run / serve / audit — one spot-check per group.
        for name in ("ExperimentSpec", "run_experiment",
                     "ServiceClient", "compare_runs",
                     "EngineError", "JobCancelled"):
            assert name in api.__all__, name

    def test_facade_runs_an_experiment(self):
        from repro import api

        from ..engine.tinywork import TinyWorkload

        spec = api.ExperimentSpec(workloads=(TinyWorkload(),), cache=False)
        result = api.run_experiment(spec)
        assert result["tiny"].task_count == TinyWorkload.chunks
