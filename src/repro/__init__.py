"""repro — compiler-generated decoupled access-execute for DVFS.

A full-system reproduction of Jimborean et al., *"Fix the code. Don't
tweak the hardware: A new compiler approach to Voltage-Frequency
scaling"* (CGO 2014):

* :mod:`repro.frontend` — a small C-like task language;
* :mod:`repro.ir` — the SSA IR the compiler works on;
* :mod:`repro.analysis` — loops, scalar evolution, access classification;
* :mod:`repro.polyhedral` — the PolyLib-equivalent polyhedral substrate;
* :mod:`repro.transform` — optimizations and the access-phase generators
  (the paper's contribution: Section 5);
* :mod:`repro.interp` / :mod:`repro.sim` — IR interpreter and the cache /
  core timing model standing in for the Sandy Bridge testbed;
* :mod:`repro.power` — the paper's power/EDP model and DVFS policies;
* :mod:`repro.runtime` — the DAE task runtime with work stealing;
* :mod:`repro.workloads` — the seven benchmark applications;
* :mod:`repro.tuning` — DVFS auto-tuning: objectives, search
  strategies, Pareto fronts, and the schedule-level ``"tuned"`` policy;
* :mod:`repro.service` — the long-lived evaluation service (job queue,
  request coalescing, supervised workers) and its client;
* :mod:`repro.evaluation` — Table 1, Figures 1-4 and the headline
  numbers of Section 6.

**Stable API:** :mod:`repro.api` is the supported public surface —
``run_experiment``, ``profile``, ``tune``, ``compare_runs``,
``ServiceClient`` and friends keep their names and signatures there
across releases.  Deep imports (``repro.engine.pool`` …) keep working
but may be reorganized; new code should prefer ``from repro.api
import ...``.

Quick start::

    from repro import compile_source, generate_access_phase, optimize_module

    module = compile_source(TASK_SOURCE)
    optimize_module(module)
    result = generate_access_phase(module.function("my_task"), module=module)
    print(result.method)            # 'affine' or 'skeleton'
"""

from ._lazy import lazy_exports
from .frontend import compile_source, parse
from .ir import Function, Module, format_function, format_module
from .transform import optimize_function, optimize_module
from .transform.access_phase import (
    AccessPhaseOptions,
    AccessPhaseResult,
    generate_access_phase,
    generate_module_access_phases,
)

__version__ = "0.1.0"

# Everything past the compiler loads on first use: ``import repro``
# stays a compiler import, and ``repro.api`` is the full facade.
__getattr__ = lazy_exports(__name__, {
    "sim.config": ("MachineConfig", "sandybridge_full"),
    "engine.spec": ("EngineResult", "ExperimentSpec"),
    "engine.pool": ("run_experiment",),
    "runtime.task": ("Scheme",),
    "tuning.tuner": ("TuningResult", "tune_workload"),
})[0]

__all__ = [
    "compile_source", "parse",
    "Function", "Module", "format_function", "format_module",
    "MachineConfig", "sandybridge_full",
    "optimize_function", "optimize_module",
    "AccessPhaseOptions", "AccessPhaseResult",
    "generate_access_phase", "generate_module_access_phases",
    "EngineResult", "ExperimentSpec", "run_experiment", "Scheme",
    "TuningResult", "tune_workload",
    "__version__",
]
