"""The e2e benchmark's reference path still runs against this tree.

``bench_e2e.py expect`` regenerates ``expected.json`` by calling the
library directly (``repro.api.profile``, ``experiments.schedule``,
``Workload.compile``), so a signature change there breaks the
benchmark's own checks.  This test runs two of its reference
functions in a child process, as the harness runs them (``src`` and
``benchmarks/e2e`` on the path, ``PYTHONHASHSEED=0``, no ``REPRO_*``
variables), and holds them to the committed digests: every paper
source's compile, and one sweep variant (libq at a 12 KiB LLC)
profiled by the reference interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "e2e"

CHILD = """
import json
import bench_e2e

out = {"compile": bench_e2e._expect_compile(None)}
bench_e2e.SWEEP_APPS = ("libq",)
bench_e2e.SWEEP_VALUES = (12,)
out["sweep"] = bench_e2e._expect_sweep(None)
print(json.dumps(out))
"""


def test_expect_reference_paths_match_committed_digests(tmp_path):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               PYTHONHASHSEED="0", HOME=str(tmp_path))
    result = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    digests = json.loads(result.stdout.splitlines()[-1])
    expected = json.loads((BENCH / "expected.json").read_text())
    assert len(digests["compile"]) == 7
    assert digests["compile"] == expected["compile"]
    assert digests["sweep"] == {"libq@12": expected["sweep"]["libq@12"]}
