"""What importing ``repro`` loads, and registries that do not depend on it.

A package ``__init__`` names its exports and imports none of them
(``repro._lazy``): ``import repro`` is a compiler import, and a CLI
start loads neither the tuner nor a process pool.  Each check runs in a
fresh interpreter, because one pytest process imports nearly the whole
package early and so hides an import-order fault.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``import repro`` must leave unloaded: everything past the
#: compiler, and the fast interpreter's code generator.
NOT_THE_COMPILER = (
    "repro.engine", "repro.runtime", "repro.sim", "repro.machines",
    "repro.power", "repro.tuning", "repro.evaluation", "repro.workloads",
    "repro.service", "repro.fuzz", "repro.interp.fast",
)

#: The packages whose ``__init__`` serves its exports lazily.
LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.engine", "repro.evaluation",
    "repro.fuzz", "repro.interp", "repro.machines", "repro.obs",
    "repro.polyhedral", "repro.power", "repro.runtime", "repro.service",
    "repro.sim", "repro.tuning",
)

REGISTERED_MACHINES = "registered: biglittle, ideal, sandybridge"


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_fresh(code: str) -> str:
    result = fresh("-c", code)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def loaded_after(statement: str) -> set:
    """The module names in ``sys.modules`` after ``statement`` runs."""
    return set(json.loads(run_fresh(
        "import json, sys\n%s\nprint(json.dumps(sorted(sys.modules)))"
        % statement
    )))


class TestImportGraph:
    def test_import_repro_loads_only_the_compiler(self):
        loaded = loaded_after("import repro")
        stray = sorted(
            name for name in loaded for package in NOT_THE_COMPILER
            if name == package or name.startswith(package + ".")
        )
        assert stray == []
        assert "multiprocessing" not in loaded
        assert "repro.transform.pipeline" in loaded

    def test_cli_import_loads_no_process_pool_or_tuner(self):
        loaded = loaded_after("import repro.evaluation.__main__")
        assert "multiprocessing" not in loaded
        assert "repro.tuning.tuner" not in loaded

    def test_every_table_name_is_its_submodules_binding(self):
        """Each listed name resolves, from a fresh start, to the very
        object its submodule binds, and a subpackage's ``__all__`` is
        its table."""
        problems = json.loads(run_fresh(
            "import importlib, json\n"
            "problems = []\n"
            "for package in %r:\n"
            "    module = importlib.import_module(package)\n"
            "    owners = module.__getattr__.owners\n"
            "    if not owners:\n"
            "        problems.append([package, 'empty table'])\n"
            "    if package != 'repro' and module.__all__ != list(owners):\n"
            "        problems.append([package, '__all__ is not the table'])\n"
            "    for name, sub in owners.items():\n"
            "        defining = importlib.import_module(package + '.' + sub)\n"
            "        if getattr(module, name) is not getattr(defining, name):\n"
            "            problems.append([package, name])\n"
            "print(json.dumps(problems))\n" % (LAZY_PACKAGES,)
        ))
        assert problems == []

    def test_repro_all_resolves_lazily(self):
        out = run_fresh(
            "import repro\n"
            "for name in repro.__all__:\n"
            "    assert getattr(repro, name) is not None, name\n"
            "print(repro.engine.__name__, repro.tuning.tune_workload.__name__)"
        )
        assert out.split() == ["repro.engine", "tune_workload"]


class TestRegistries:
    """Every registry holds its built-in entries in a process that
    imported nothing but the class that owns it."""

    def test_machine_names(self):
        out = run_fresh(
            "from repro.machines.model import MachineModel\n"
            "print(','.join(MachineModel.registered_names()))"
        )
        assert out.split() == ["biglittle,ideal,sandybridge"]

    def test_machine_lookup(self):
        out = run_fresh(
            "from repro.machines.model import MachineModel\n"
            "print(MachineModel.from_name('biglittle').name)"
        )
        assert out.split() == ["biglittle"]

    @pytest.mark.parametrize("argv", [
        ["tune", "cg", "--machine", "nosuch"],
        ["machines", "cg", "--machines", "sandybridge,nosuch"],
    ], ids=["tune", "machines"])
    def test_cli_lists_every_machine(self, argv):
        result = fresh("-m", "repro.evaluation", *argv)
        assert result.returncode == 2
        assert REGISTERED_MACHINES in result.stderr

    def test_policy_names(self):
        out = run_fresh(
            "from repro.power.frequency import FrequencyPolicy\n"
            "print(','.join(FrequencyPolicy.registered_names()))"
        )
        assert out.split() == ["fixed,fmax,fmin,minmax,optimal,tuned"]

    def test_objective_names(self):
        out = run_fresh(
            "from repro.tuning.objectives import Objective\n"
            "print(','.join(Objective.registered_names()))\n"
            "print(Objective.from_name('energy-under-deadline@1.5').name)"
        )
        lines = out.splitlines()
        assert lines[0] == "delay,ed2p,edp,energy"
        assert lines[1].startswith("energy-under-deadline")
