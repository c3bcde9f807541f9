"""The ``fuzz`` evaluation verb: run / replay / reduce, determinism."""

from __future__ import annotations

import json
import os

import pytest

from repro.evaluation.__main__ import main
from repro.evaluation.fuzzing import (
    fuzz_reduce,
    fuzz_replay,
    fuzz_run,
    render_fuzz_report,
    verify_passes_env,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestFuzzRun:
    def test_small_run_is_clean_and_deterministic(self):
        first = fuzz_run(0, 8, pool_sample=2)
        second = fuzz_run(0, 8, pool_sample=2)
        assert first == second
        assert first["violations"] == []
        assert sum(first["methods"].values()) == 8

    def test_cli_exit_codes_and_report(self, capsys, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(["fuzz", "run", "--seed", "0", "--count", "4",
                     "--pool-sample", "0", "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "no oracle violations" in stdout
        with open(out) as handle:
            report = json.load(handle)
        assert report["count"] == 4
        assert report["violations"] == []

    def test_render_report_lists_violations(self):
        report = {
            "seed": 0, "count": 1, "pool_sample": 0,
            "methods": {"skeleton": 1}, "features": {"loop": 1},
            "violations": [
                {"oracle": "interp-equivalence", "seed": 0,
                 "detail": "event streams diverge"},
            ],
        }
        text = render_fuzz_report(report)
        assert "1 ORACLE VIOLATION" in text
        assert "interp-equivalence" in text


class TestFuzzReplay:
    def test_replay_checked_in_corpus(self):
        report = fuzz_replay(CORPUS_DIR)
        assert report["entries"]
        assert report["violations"] == []

    def test_cli_replay(self, capsys):
        code = main(["fuzz", "replay", "--corpus", CORPUS_DIR])
        assert code == 0
        assert "no oracle violations" in capsys.readouterr().out

    def test_cli_replay_of_no_entries_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "replay", "--corpus", str(tmp_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "no corpus entries under %s" % tmp_path in captured.err
        assert "no oracle violations" not in captured.out


class TestFuzzReduce:
    def test_injected_failure_reduces_to_quarter(self, tmp_path):
        out = str(tmp_path / "reduced.fuzz")
        report = fuzz_reduce(seed=0, inject=True, out=out)
        assert report["ratio"] <= 0.25
        assert "31337" in report["source"]
        # The artifact is a loadable corpus file.
        from repro.fuzz.corpus import load_program

        loaded = load_program(out)
        assert "31337" in loaded.source

    def test_cli_reduce(self, capsys):
        code = main(["fuzz", "reduce", "--seed", "1", "--inject"])
        assert code == 0
        assert "fuzz reduce" in capsys.readouterr().out

    def test_reduce_without_mode_errors(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "reduce"])

    def test_reduce_requires_failing_input(self, tmp_path):
        from repro.fuzz.corpus import save_program
        from repro.fuzz.generator import generate_program

        path = str(tmp_path / "clean.fuzz")
        save_program(generate_program(0), path)
        with pytest.raises(ValueError):
            fuzz_reduce(corpus_file=path)


class TestVerifyPassesEnv:
    def test_context_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PASSES", raising=False)
        with verify_passes_env():
            assert os.environ["REPRO_VERIFY_PASSES"] == "1"
        assert "REPRO_VERIFY_PASSES" not in os.environ

    def test_context_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PASSES", "0")
        with verify_passes_env():
            assert os.environ["REPRO_VERIFY_PASSES"] == "1"
        assert os.environ["REPRO_VERIFY_PASSES"] == "0"
