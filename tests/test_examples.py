"""Every example script runs to completion from a source checkout.

Each one runs in a child process with ``PYTHONPATH=src``, as its
docstring says to run it, and must exit 0.  The polyhedral
playground's hull, counts, scan nest and visited points are pinned.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

PLAYGROUND_LINES = [
    "hull of triangle + transpose: { [i, j] : N-j-1 >= 0 and "
    "2*N-i-j-3 >= 0 and N-i-1 >= 0 and i >= 0 and i+j-1 >= 0 and "
    "j >= 0 }",
    "NconvUn = N^2 + -2    NOrig = N^2 + -1*N",
    "scan nest depth: 2",
    "  level 0: i in max(0, -N+2) .. min(N-1, 2*N-3)",
    "  level 1: j in max(-i+1, 0) .. min(N-1, 2*N-i-3)",
    "visited at N=4 (14 points): [(0, 1), (0, 2), (0, 3), (1, 0), "
    "(1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), "
    "(3, 1), (3, 2)]",
]


def run_example(path: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}
    return subprocess.run([sys.executable, str(path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(path, tmp_path):
    result = run_example(path, tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_playground_output(tmp_path):
    result = run_example(ROOT / "examples" / "polyhedral_playground.py",
                         tmp_path)
    lines = result.stdout.splitlines()
    for line in PLAYGROUND_LINES:
        assert line in lines
