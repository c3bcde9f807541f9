"""The printed IR does not depend on the process.

Phi placement in mem2reg names each phi as it places it, and the block
sets it walks hash by address.  Two fresh interpreters, with different
hash seeds, must print the same optimized IR for the paper workloads
and for generated programs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

WORKLOADS = ("lu", "cholesky", "fft", "cg")
GENERATED = (0, 1, 2, 3, 4)

_PRINT_IR = """
import hashlib, json
from repro.fuzz.generator import generate_program
from repro.fuzz.workload import FuzzWorkload
from repro.ir.printer import format_module
from repro.workloads import workload_by_name

workloads = [workload_by_name(name) for name in %r]
workloads += [FuzzWorkload(generate_program(seed)) for seed in %r]
print(json.dumps({
    workload.name: hashlib.sha256(
        format_module(workload.compile().module).encode()).hexdigest()
    for workload in workloads
}))
""" % (WORKLOADS, GENERATED)


def _printed_ir(hash_seed: str) -> dict:
    env = {**os.environ, "PYTHONPATH": REPO_SRC,
           "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", _PRINT_IR], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_two_processes_print_the_same_ir():
    first, second = _printed_ir("0"), _printed_ir("1")
    assert len(first) == len(WORKLOADS) + len(GENERATED)
    differing = sorted(name for name in first if first[name] != second[name])
    assert not differing, differing
