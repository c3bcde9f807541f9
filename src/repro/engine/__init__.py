"""Parallel evaluation engine with a persistent compile/profile cache.

The layer between the runtime/simulator and the evaluation harness:

* :mod:`repro.engine.spec` — the typed :class:`ExperimentSpec` /
  :class:`EngineResult` facade;
* :mod:`repro.engine.products` — :func:`profile_workload` (the one
  compile-and-profile entry point) and the slim, serializable product
  representation;
* :mod:`repro.engine.cache` — the content-addressed persistent cache
  (``~/.cache/repro-dae`` by default, ``REPRO_CACHE_DIR`` to move it);
* :mod:`repro.engine.pool` — :func:`run_experiment`, fanning the
  (workload, scheme, scale, machine) matrix over a process pool with
  per-job timeout, single retry, and graceful serial fallback.

Typical use::

    from repro.engine import ExperimentSpec, run_experiment

    result = run_experiment(ExperimentSpec(jobs=4, scale=1))
    for name, run in result.items():
        print(name, run.task_count, run.from_cache)
    print(result.stats)
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "cache": ("CacheStats", "ProfileCache", "cache_key", "key_material"),
    "products": ("ALL_SCHEMES", "CompiledSummary", "EngineError",
                 "WorkloadRun", "profile_workload", "run_from_payload",
                 "run_to_payload"),
    "jobs": ("CancelToken", "EngineJobHandle", "JobCancelled",
             "submit_experiment"),
    "pool": ("EnginePool", "run_experiment"),
    "spec": ("EngineResult", "EngineStats", "ExperimentSpec"),
})
