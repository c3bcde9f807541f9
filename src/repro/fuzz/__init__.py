"""Differential fuzzing subsystem for the DAE pipeline.

The paper's contract is that the compiler-generated access phase is a
*pure prefetch slice*: DAE-transformed code must be semantically
identical to the original, and the simulator/scheduler stack must
account time and energy consistently no matter how the program was
produced.  This package turns that contract into a continuously-checked
property:

* :mod:`repro.fuzz.generator` — a seeded random program generator
  emitting task-language programs that span the transform's feature
  space (affine and non-affine loop nests, indirection, pointer
  chasing, branches in loop bodies, reductions, calls, mixed int/float
  arithmetic), every one of which passes the IR verifier and terminates
  under the step limit;
* :mod:`repro.fuzz.oracles` — differential oracles run on each
  program: reference interpreter ≡ fast interpreter, DAE ≡ original
  final state, serial ≡ pooled engine results, and timeline/energy
  invariants;
* :mod:`repro.fuzz.reducer` — delta-debugging minimization of a
  failing program while the oracle keeps failing;
* :mod:`repro.fuzz.corpus` — the checked-in regression corpus under
  ``tests/fuzz/corpus/`` and its on-disk format.

CLI: ``python -m repro.evaluation fuzz {run,replay,reduce}``.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "corpus": ("CorpusError", "load_corpus", "load_program", "save_program"),
    "generator": ("GeneratedProgram", "GeneratorConfig", "ParamSpec",
                  "generate_invalid_program", "generate_program",
                  "inject_marker"),
    "oracles": ("ORACLE_NAMES", "FuzzCase", "OracleViolation",
                "check_engine_pool_equivalence", "prepare_case",
                "run_oracles"),
    "reducer": ("ReductionResult", "reduce_program", "statement_count"),
    "workload": ("FuzzWorkload",),
})
