"""The typed Scheme enum and the frequency-policy registry."""

import warnings

import pytest

from repro.power.frequency import (
    FixedPolicy,
    FrequencyPolicy,
    MinMaxPolicy,
    OptimalEDPPolicy,
)
from repro.runtime.task import Scheme
from repro.sim.config import MachineConfig


class TestScheme:
    def test_members_compare_equal_to_strings(self):
        assert Scheme.CAE == "cae"
        assert Scheme.DAE == "dae"
        assert Scheme.MANUAL == "manual"
        assert Scheme.DAE.value == "dae"

    def test_coerce_passthrough_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Scheme(Scheme.DAE) is Scheme.DAE

    def test_values_in_any_case_coerce_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Scheme("dae") is Scheme.DAE
            assert Scheme("CAE") is Scheme.CAE
            assert Scheme("Manual") is Scheme.MANUAL

    def test_coerce_rejects_unknown(self):
        for bad in ("warp", 3, None):
            with pytest.raises(ValueError, match="unknown scheme"):
                Scheme(bad)


class TestPolicyRegistry:
    def test_builtin_names(self):
        names = FrequencyPolicy.registered_names()
        for name in ("minmax", "optimal", "fmax", "fmin"):
            assert name in names

    def test_from_name_builtins(self):
        config = MachineConfig()
        assert isinstance(
            FrequencyPolicy.from_name("minmax", config), MinMaxPolicy
        )
        assert isinstance(
            FrequencyPolicy.from_name("optimal", config), OptimalEDPPolicy
        )
        fmax = FrequencyPolicy.from_name("fmax", config)
        assert isinstance(fmax, FixedPolicy)
        assert fmax.point == config.fmax
        fmin = FrequencyPolicy.from_name("FMIN", config)
        assert fmin.point == config.fmin

    def test_from_name_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            FrequencyPolicy.from_name("turbo")

    def test_register_custom_policy(self):
        class NullPolicy(FrequencyPolicy):
            def __init__(self, config):
                self.config = config

            def access_point(self, profile, config):
                return config.fmin

            def execute_point(self, profile, config):
                return config.fmin

        FrequencyPolicy.register("nullp", NullPolicy)
        try:
            policy = FrequencyPolicy.from_name("nullp", MachineConfig())
            assert isinstance(policy, NullPolicy)
        finally:
            from repro.power import frequency
            frequency._POLICY_REGISTRY.pop("nullp", None)
