"""Byte pins on the paper's reports: Table 1, Figures 3 and 4 and the
headline numbers, on the cg + cigar subset.

The other evaluation tests check the reports' shapes; these hold the
numbers themselves.  Each report is serialized as canonical JSON
(sorted keys, compact separators) and compared by sha256 against a
digest recorded from a known-good tree, so a change that moves any
schedule behind a report fails here even when every shape check
passes.

When a change is *meant* to move one of these numbers, recompute the
digest with :func:`digest` and say why in the commit.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.evaluation import (
    figure3_rows,
    figure4_series,
    headline_numbers,
    run_workload,
    table1_rows,
)
from repro.sim import MachineConfig
from repro.workloads import CGWorkload, CigarWorkload

PINS = {
    "table1": "5d0bb8e08d3514ce9d4eb73dd59a6d324f84a031951cfeeecaef3ba6779cf292",
    "figure3": "43f5c5597b75db9507d4a4a734db3656134e76eb87c366d270ea2bf5aa72b277",
    "figure4": "6e1ea9ea3b6841a23d9af961ba156234bcd1f3a1e26ee8a1cb62475f92f693ff",
    "headline": "a32934926780a3fba64d2db0a706393328688bbef5007d142b721a6b190a6594",
}


def digest(doc) -> str:
    """sha256 of ``doc`` as canonical JSON."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def config():
    return MachineConfig()


@pytest.fixture(scope="module")
def runs(config):
    return {
        "cg": run_workload(CGWorkload(), 1, config),
        "cigar": run_workload(CigarWorkload(), 1, config),
    }


def test_table1_is_pinned(runs, config):
    rows = [asdict(r) for r in table1_rows(runs, config)]
    assert digest(rows) == PINS["table1"]


def test_figure3_is_pinned(runs, config):
    rows = [asdict(r) for r in figure3_rows(runs, config)]
    assert digest(rows) == PINS["figure3"]


def test_figure4_is_pinned(runs, config):
    series = [asdict(s) for s in figure4_series(runs["cg"], config)]
    assert digest(series) == PINS["figure4"]


def test_headline_is_pinned(runs, config):
    assert digest(asdict(headline_numbers(runs, config))) == PINS["headline"]
