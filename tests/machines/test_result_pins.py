"""Byte pins on machine, ablation and tuning results.

Every other machine test checks shapes or agreement between two code
paths; these hold the numbers themselves.  Each output is serialized
as canonical JSON (sorted keys, compact separators) and compared by
sha256 against a digest recorded from a known-good tree, so any change
to a biglittle schedule, an ablation row, a tuning winner or the text
of a tuning report fails here even when every shape check passes.

When a change is *meant* to move one of these numbers, recompute the
digest with :func:`digest` and say why in the commit.
"""

import hashlib
import json

import pytest

from repro.engine.products import profile_workload
from repro.evaluation.ablation import ablate_workload
from repro.evaluation.machines import compare_machines
from repro.evaluation.tuning import render_tuning_report
from repro.power.frequency import FrequencyPolicy
from repro.runtime import DAEScheduler, Scheme
from repro.sim import MachineConfig
from repro.tuning import tune_workload
from repro.tuning.policy import _unregister_tuned_for_tests, install_tuned_policy
from repro.workloads import workload_by_name

from ..engine.tinywork import TinyWorkload

PINS = {
    "machines": "42230c04adf268f8675a9f34bb5adca74d9a473e063e42d462c2fcdbcaa87cab",
    "ablate": "9bc867d4686a7077bd5fa3ba9cf8d8ef88f62dc59e85feff2cabcee35c9ea8fe",
    "tune": "d6513379303d2b80da53ef62f7a918e94cd1a385e49980bb8f3df1bd59526443",
    "tune-report": "f04d008d55a843d18aa9abaa833b981a946c9cf709a28e0e02b70c5928c7beda",
    "tune-biglittle": "ef0ca583ac1e0c29d8253c5c20663d1258ce473cd5834e0da23f1bf74409d19e",
    "tune-biglittle-report": "f18a90834b3ed704f10b8edf5910cc02a7bc8c764c113a4dce62ad912da918b6",
    "tuned-on-sandybridge": "3be87c70ed0f1cba3ca7c23d7dd821a02b66c82b5bf26f28c19c6d72738495f2",
}


def digest(doc) -> str:
    """sha256 of ``doc`` as canonical JSON."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def biglittle_tuning():
    return tune_workload(
        TinyWorkload(), machine="biglittle", cache=False, install=False,
    )


def test_machines_comparison_is_pinned():
    report = compare_machines(
        [workload_by_name("cg"), workload_by_name("cigar")],
        ["sandybridge", "biglittle", "ideal"],
    )
    assert digest(report) == PINS["machines"]


def test_ablation_report_is_pinned():
    report = ablate_workload(TinyWorkload(), "llc_kb", [12, 48])
    assert digest(report) == PINS["ablate"]


def test_homogeneous_tuning_is_pinned():
    result = tune_workload(TinyWorkload(), cache=False, install=False)
    assert digest(result.as_dict()) == PINS["tune"]
    assert digest(render_tuning_report(result)) == PINS["tune-report"]


def test_biglittle_tuning_is_pinned(biglittle_tuning):
    assert digest(biglittle_tuning.as_dict()) == PINS["tune-biglittle"]
    assert (digest(render_tuning_report(biglittle_tuning))
            == PINS["tune-biglittle-report"])


def test_off_table_tuned_policy_on_sandybridge_is_pinned(biglittle_tuning):
    """A biglittle winner picks points from the LITTLE table, which
    sandybridge does not have.  A single-type run schedules them as
    given (no projection onto the sandybridge table)."""
    config = MachineConfig()
    run = profile_workload(TinyWorkload(), 1, config)
    install_tuned_policy(biglittle_tuning.policy)
    try:
        result = DAEScheduler(config).run(
            run.profiles["dae"].tasks, Scheme.DAE,
            FrequencyPolicy.from_name("tuned", config),
        )
    finally:
        _unregister_tuned_for_tests()
    assert biglittle_tuning.best.label == "little->little A0.6/E1.4"
    assert digest(result.summary()) == PINS["tuned-on-sandybridge"]
