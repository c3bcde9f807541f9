"""Tuning on a machine model: homogeneous pass-through and the
heterogeneous placement × per-type point search."""

import pytest

from repro.machines import little_config
from repro.sim import MachineConfig
from repro.tuning import tune_workload

from ..engine.tinywork import TinyWorkload

BIG_FREQS = sorted(p.freq_ghz for p in MachineConfig().operating_points)
LITTLE_FREQS = sorted(
    p.freq_ghz for p in little_config().operating_points)


@pytest.fixture(scope="module")
def biglittle_result():
    return tune_workload(
        TinyWorkload(), machine="biglittle", cache=False, install=False,
    )


class TestHomogeneousMachine:
    def test_sandybridge_matches_machine_less_tuning(self):
        plain = tune_workload(TinyWorkload(), cache=False, install=False)
        machined = tune_workload(
            TinyWorkload(), machine="sandybridge", cache=False,
            install=False,
        )
        assert machined.machine == "sandybridge"
        assert machined.placement is None
        assert machined.best.label == plain.best.label
        assert machined.best.value == plain.best.value

    def test_sandybridge_reads_the_default_machines_candidates(
            self, tmp_path):
        """The candidate key carries no machine name: a sandybridge run
        after a machine-less one in the same cache schedules nothing,
        and the two results differ only in the machine they name."""
        cache_dir = str(tmp_path / "cache")
        plain = tune_workload(TinyWorkload(), cache_dir=cache_dir,
                              install=False)
        machined = tune_workload(TinyWorkload(), machine="sandybridge",
                                 cache_dir=cache_dir, install=False)
        assert plain.stats.schedule_evals > 0
        assert machined.stats.schedule_evals == 0
        assert machined.stats.cache_hits == plain.stats.cache_misses
        first, second = plain.as_dict(), machined.as_dict()
        assert second.pop("machine") == "sandybridge"
        assert second.pop("placement") is None
        assert first == second


class TestBigLittleTuning:
    def test_result_records_machine_and_placement(self, biglittle_result):
        result = biglittle_result
        assert result.machine == "biglittle"
        assert set(result.placement) == {"access", "execute"}
        assert result.placement["access"] in ("big", "little")
        assert result.placement["execute"] in ("big", "little")

    def test_placement_search_covers_every_pairing(self, biglittle_result):
        labels = [c.label for c in biglittle_result.candidates]
        prefixes = {label.split(" ", 1)[0] for label in labels}
        assert prefixes == {"little->big", "big->big", "little->little"}
        # Exhaustive per-placement sweeps over the placed tables.
        n_big, n_little = len(BIG_FREQS), len(LITTLE_FREQS)
        assert labels and len(labels) == (
            n_little * n_big + n_big * n_big + n_little * n_little
        )
        strategy_names = {s.name for s in biglittle_result.strategies}
        assert {
            "placement:little->big",
            "placement:big->big",
            "placement:little->little",
        } <= strategy_names

    def test_winner_is_the_global_best(self, biglittle_result):
        feasible = [
            c.value for c in biglittle_result.candidates
            if c.value != float("inf")
        ]
        assert biglittle_result.best.value == min(feasible)

    def test_as_dict_carries_machine_fields(self, biglittle_result):
        doc = biglittle_result.as_dict()
        assert doc["machine"] == "biglittle"
        assert doc["placement"] == biglittle_result.placement

    def test_unknown_machine_name_raises(self):
        with pytest.raises(KeyError, match="registered"):
            tune_workload(
                TinyWorkload(), machine="cray1", install=False,
            )
