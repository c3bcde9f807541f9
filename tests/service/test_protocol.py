"""The wire protocol: spec documents, dedup keys, canonical results."""

import json

import pytest

from repro.engine.products import EngineError
from repro.engine.spec import ExperimentSpec
from repro.service.protocol import (
    canonical_dumps,
    decode_line,
    encode_line,
    engine_result_doc,
    error_doc,
    job_key,
    spec_from_doc,
    spec_to_doc,
    tune_from_doc,
)

from ..engine.tinywork import TinyWorkload


class TestSpecDocuments:
    def test_round_trip(self):
        spec = ExperimentSpec(workloads=("cg", "lu"), scale=2, jobs=3)
        doc = spec_to_doc(spec)
        again = spec_from_doc(doc)
        assert [w.name for w in again.resolve_workloads()] == ["cg", "lu"]
        assert again.scale == 2
        assert again.jobs == 3
        assert again.schemes == spec.schemes

    def test_doc_is_json_serializable(self):
        doc = spec_to_doc(ExperimentSpec(workloads=("cg",)))
        json.dumps(doc)

    def test_unknown_field_rejected_loudly(self):
        with pytest.raises(EngineError) as err:
            spec_from_doc({"workloads": ["cg"], "scael": 2})
        assert "scael" in str(err.value)
        assert "workloads" in str(err.value)  # lists the valid fields

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            spec_from_doc(["cg"])

    def test_retired_interp_choice_rejected(self):
        # Both interpreters give the same bytes, so the wire has no
        # interp field: any value is an unknown field.
        for value in ("replay", "reference", "fast"):
            with pytest.raises(EngineError, match="'interp'"):
                spec_from_doc({"workloads": ["cg"], "interp": value})
        doc = spec_to_doc(ExperimentSpec(workloads=("cg",),
                                         interp="reference"))
        assert "interp" not in doc

    def test_tune_doc_validates(self):
        kwargs = tune_from_doc({"workload": "cg", "objective": "edp"})
        assert kwargs == {"workload": "cg", "objective": "edp"}
        with pytest.raises(ValueError):
            tune_from_doc({"objective": "edp"})        # no workload
        with pytest.raises(ValueError):
            tune_from_doc({"workload": "cg", "bogus": 1})
        with pytest.raises(ValueError, match="'jobs'"):
            tune_from_doc({"workload": "cg", "jobs": 2})


class TestJobKey:
    def test_identical_docs_share_a_key(self):
        doc = {"workloads": ["cg"], "scale": 2}
        assert job_key("experiment", doc) == job_key("experiment", dict(doc))

    def test_execution_knobs_do_not_change_the_key(self):
        base = job_key("experiment", {"workloads": ["cg"], "scale": 2})
        for knob in ({"jobs": 4}, {"cache": False},
                     {"timeout_s": 5.0}, {"cache_dir": "/tmp/elsewhere"}):
            doc = {"workloads": ["cg"], "scale": 2, **knob}
            assert job_key("experiment", doc) == base, knob

    def test_result_determining_knobs_change_the_key(self):
        base = job_key("experiment", {"workloads": ["cg"], "scale": 2})
        assert job_key(
            "experiment", {"workloads": ["cg"], "scale": 3}) != base
        assert job_key(
            "experiment", {"workloads": ["lu"], "scale": 2}) != base
        assert job_key(
            "experiment",
            {"workloads": ["cg"], "scale": 2, "schemes": ["dae"]},
        ) != base

    def test_tune_and_experiment_keys_never_collide(self):
        assert job_key("experiment", {"workloads": ["cg"]}) != \
            job_key("tune", {"workload": "cg"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            job_key("banana", {})


class TestResultDocuments:
    def test_engine_result_doc_is_canonical_and_repeatable(self):
        from repro.engine import run_experiment

        spec = ExperimentSpec(workloads=(TinyWorkload(),), cache=False)
        first = canonical_dumps(engine_result_doc(run_experiment(spec)))
        second = canonical_dumps(engine_result_doc(run_experiment(spec)))
        assert first == second            # byte-identical across runs
        doc = json.loads(first)
        assert doc["kind"] == "experiment"
        assert set(doc["workloads"]) == {"tiny"}

    def test_canonical_dumps_is_order_insensitive(self):
        assert canonical_dumps({"b": 1, "a": 2}) == \
            canonical_dumps({"a": 2, "b": 1})
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})


class TestFraming:
    def test_encode_decode_round_trip(self):
        line = encode_line({"op": "ping"})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"op": "ping"}

    def test_garbage_lines_decode_to_none(self):
        assert decode_line(b"") is None
        assert decode_line(b"   \n") is None
        assert decode_line(b"{not json}\n") is None
        assert decode_line(b"[1, 2]\n") is None  # not an object

    def test_error_doc_shape(self):
        doc = error_doc("overloaded", "queue full", queue_depth=64)
        assert doc == {"ok": False, "error": "overloaded",
                       "detail": "queue full", "queue_depth": 64}
