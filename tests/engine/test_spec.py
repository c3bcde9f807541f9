"""ExperimentSpec validation and the EngineResult mapping facade."""

import pytest

from repro.engine import EngineResult, ExperimentSpec, run_experiment
from repro.runtime.task import Scheme
from repro.workloads import ALL_WORKLOADS

from .tinywork import TinyWorkload


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.scale == 1
        assert spec.jobs == 1
        assert spec.cache is True
        assert spec.schemes == (Scheme.CAE, Scheme.DAE, Scheme.MANUAL)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(scale=0)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(jobs=0)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(timeout_s=0)

    def test_scheme_strings_coerced(self):
        spec = ExperimentSpec(schemes=("cae", "DAE"))
        assert spec.schemes == (Scheme.CAE, Scheme.DAE)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(schemes=("warp",))

    def test_interp_has_two_choices(self):
        assert ExperimentSpec().interp is None      # the replay default
        assert ExperimentSpec(interp="reference").interp == "reference"
        with pytest.raises(ValueError, match="'replay', 'reference'"):
            ExperimentSpec(interp="fast")

    def test_empty_workloads_means_all(self):
        resolved = ExperimentSpec().resolve_workloads()
        assert [w.name for w in resolved] == [w.name for w in ALL_WORKLOADS]

    def test_workload_specifier_forms(self):
        spec = ExperimentSpec(workloads=(
            TinyWorkload(), "cholesky", TinyWorkload,
        ))
        resolved = spec.resolve_workloads()
        assert [w.name for w in resolved] == ["tiny", "cholesky", "tiny"]

    def test_bad_workload_specifier_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(workloads=(42,)).resolve_workloads()


class TestStrictKwargs:
    def test_field_names_cover_the_dataclass(self):
        names = ExperimentSpec.field_names()
        assert "workloads" in names
        assert "schemes" in names
        assert "cache_dir" in names

    def test_from_kwargs_accepts_valid_fields(self):
        spec = ExperimentSpec.from_kwargs(workloads=("cg",), scale=2)
        assert spec.scale == 2

    def test_unknown_kwarg_rejected_with_field_list(self):
        from repro.engine import EngineError

        with pytest.raises(EngineError) as err:
            ExperimentSpec.from_kwargs(workloads=("cg",), scael=2)
        message = str(err.value)
        assert "'scael'" in message
        assert "valid fields" in message
        assert "scale" in message          # the list names the real knob

    def test_replace_derives_a_validated_variant(self):
        base = ExperimentSpec(workloads=("cg",), scale=1, jobs=4)
        variant = base.replace(jobs=1)
        assert variant.jobs == 1
        assert variant.scale == 1
        assert variant.workloads == base.workloads
        assert base.jobs == 4              # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            ExperimentSpec().replace(scale=0)

    def test_replace_rejects_unknown_fields(self):
        from repro.engine import EngineError

        with pytest.raises(EngineError, match="scael"):
            ExperimentSpec().replace(scael=2)


class TestEngineResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentSpec(
            workloads=(TinyWorkload(),), cache=False,
        ))

    def test_is_a_mapping(self, result):
        assert isinstance(result, EngineResult)
        assert len(result) == 1
        assert list(result) == ["tiny"]
        assert "tiny" in result
        assert result["tiny"].workload.name == "tiny"
        assert dict(result) == {"tiny": result["tiny"]}

    def test_legacy_dict_idioms_work(self, result):
        assert [name for name, run in result.items()] == ["tiny"]
        assert result.get("missing") is None

    def test_stats_attached(self, result):
        assert result.stats.jobs_completed == 1
        assert result.stats.elapsed_s > 0
        as_dict = result.stats.as_dict()
        assert as_dict["jobs_completed"] == 1
