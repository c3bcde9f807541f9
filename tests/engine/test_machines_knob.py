"""The spec/cache/service plumbing for the ``machine`` knob."""

from dataclasses import replace

import pytest

from repro.engine.cache import cache_key, key_material
from repro.engine.products import EngineError
from repro.engine.spec import ExperimentSpec
from repro.machines import as_machine, biglittle_machine
from repro.service.protocol import (
    job_key,
    spec_from_doc,
    spec_to_doc,
    tune_from_doc,
)
from repro.sim import MachineConfig

from .tinywork import TinyWorkload


class TestSpecKnob:
    def test_machine_name_is_lowercased_and_resolved(self):
        spec = ExperimentSpec(machine="BigLittle")
        assert spec.machine == biglittle_machine()
        assert spec.machine.name == "biglittle"

    def test_no_machine_resolves_to_none(self):
        # No machine, None and the default config all resolve to the
        # default config's single-type machine.
        default = ExperimentSpec().machine
        assert default == as_machine(None)
        assert default.name == "homogeneous"
        assert default.config == MachineConfig()
        assert ExperimentSpec(machine=MachineConfig()).machine == default

    def test_unknown_machine_raises_engine_error(self):
        with pytest.raises(EngineError, match="registered"):
            ExperimentSpec(machine="cray1")

    def test_machine_of_another_type_raises_engine_error(self):
        with pytest.raises(EngineError, match="registered name"):
            ExperimentSpec(machine=5)

    def test_replace_revalidates_machine(self):
        spec = ExperimentSpec()
        with pytest.raises(EngineError, match="registered"):
            spec.replace(machine="cray1")


class TestCacheKey:
    def _material(self, machine=None):
        return key_material(
            TinyWorkload(), 1, as_machine(machine), None, ("cae", "dae"),
        )

    def test_machine_changes_the_cache_key(self):
        plain = self._material()
        machined = self._material(machine=biglittle_machine())
        assert cache_key(plain) != cache_key(machined)

    def test_names_change_no_key(self):
        """Only content keys a machine: ``sandybridge`` wraps the default
        config, so it keys with it; renaming a machine and its core
        types moves nothing, swapping the placement does."""
        default = cache_key(self._material())
        keys = [cache_key(self._material(machine=name))
                for name in ("sandybridge", "biglittle", "ideal")]
        assert keys[0] == default
        assert len(set(keys)) == 3
        machine = biglittle_machine()
        renamed = replace(
            machine, name="other",
            core_types=tuple(replace(t, name=t.name.upper())
                             for t in machine.core_types),
            access_type="LITTLE", execute_type="BIG",
        ).validate()
        assert cache_key(self._material(machine=renamed)) == keys[1]
        swapped = replace(machine, access_type="big",
                          execute_type="little").validate()
        assert cache_key(self._material(machine=swapped)) != keys[1]


class TestWireProtocol:
    def test_spec_doc_round_trips_machine(self):
        spec = ExperimentSpec(workloads=("cg",), machine="biglittle")
        doc = spec_to_doc(spec)
        assert doc["machine"] == "biglittle"
        assert spec_from_doc(doc).machine.name == "biglittle"

    def test_machine_less_doc_round_trips_to_none(self):
        doc = spec_to_doc(ExperimentSpec(workloads=("cg",)))
        assert doc["machine"] is None
        assert spec_from_doc(doc).machine == ExperimentSpec().machine

    def test_only_default_and_registered_machines_travel(self):
        sandybridge = ExperimentSpec(workloads=("cg",),
                                     machine="sandybridge")
        assert spec_to_doc(sandybridge)["machine"] == "sandybridge"
        custom = ExperimentSpec(
            workloads=("cg",), machine=MachineConfig(dvfs_transition_ns=0.0),
        )
        with pytest.raises(ValueError, match="registered name"):
            spec_to_doc(custom)

    def test_experiment_job_keys_differ_by_machine(self):
        plain = spec_to_doc(ExperimentSpec(workloads=("cg",)))
        machined = spec_to_doc(
            ExperimentSpec(workloads=("cg",), machine="biglittle")
        )
        assert (job_key("experiment", plain)
                != job_key("experiment", machined))

    def test_job_keys_ignore_machine_names(self):
        plain = spec_to_doc(ExperimentSpec(workloads=("cg",)))
        named = spec_to_doc(
            ExperimentSpec(workloads=("cg",), machine="sandybridge")
        )
        assert job_key("experiment", plain) == job_key("experiment", named)
        assert (job_key("tune", {"workload": "cg"})
                == job_key("tune", {"workload": "cg",
                                    "machine": "sandybridge"}))

    def test_tune_doc_accepts_and_keys_machine(self):
        doc = {"workload": "cg", "machine": "biglittle"}
        assert tune_from_doc(doc)["machine"] == "biglittle"
        assert (job_key("tune", {"workload": "cg"})
                != job_key("tune", doc))
