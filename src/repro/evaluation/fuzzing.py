"""Evaluation-layer driver for the fuzzing subsystem.

Implements the three ``python -m repro.evaluation fuzz`` verbs:

* ``run``    — generate ``count`` programs from ``seed`` and run every
  per-program oracle on each, plus the serial≡pooled engine oracle on
  a leading sample; renders a deterministic report (no wall-clock, no
  environment), so two runs with the same seed produce byte-identical
  output;
* ``replay`` — run all oracles over every reproducer in a corpus
  directory (the regression gate);
* ``reduce`` — delta-debug a failing program down to a minimal
  reproducer: either a synthetically-injected failure (``--inject``,
  the self-test mode) or a real corpus entry whose first oracle
  violation is used as the predicate.

Per-pass IR verification (:envvar:`REPRO_VERIFY_PASSES`) is forced on
for every verb — the fuzzer always runs with the optimizer blaming the
offending pass directly.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from typing import Optional

from ..fuzz import (
    OracleViolation,
    check_engine_pool_equivalence,
    generate_program,
    inject_marker,
    load_corpus,
    load_program,
    prepare_case,
    reduce_program,
    run_oracles,
    save_program,
)
from ..fuzz.generator import MARKER_TEXT, GeneratorConfig
from ..obs.events import get_collector

#: Default regression-corpus location, relative to the working
#: directory (the repo root); ``fuzz replay`` exits 2 when it finds no
#: entry there.
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz", "corpus")

#: How many leading programs the serial≡pooled engine oracle covers.
DEFAULT_POOL_SAMPLE = 6


@contextmanager
def verify_passes_env():
    """Force per-pass IR verification for the duration of the block."""
    previous = os.environ.get("REPRO_VERIFY_PASSES")
    os.environ["REPRO_VERIFY_PASSES"] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_VERIFY_PASSES"]
        else:
            os.environ["REPRO_VERIFY_PASSES"] = previous


def fuzz_run(seed: int, count: int,
             config: Optional[GeneratorConfig] = None,
             pool_sample: int = DEFAULT_POOL_SAMPLE,
             save_failures: Optional[str] = None) -> dict:
    """Generate and check ``count`` programs; returns the report dict."""
    collector = get_collector()
    config = config or GeneratorConfig()
    violations: list = []
    methods: Counter = Counter()
    features: Counter = Counter()
    programs = []
    with verify_passes_env():
        for index in range(count):
            program = generate_program(seed + index, config)
            programs.append(program)
            collector.counter("fuzz.programs", 1, cat="fuzz")
            for tag in program.features:
                features[tag] += 1
            case = None
            try:
                case = prepare_case(program)
                methods[case.method] += 1
            except Exception:
                methods["error"] += 1
            violations.extend(run_oracles(program, case=case))
        violations.extend(
            check_engine_pool_equivalence(programs[:max(0, pool_sample)])
        )
    if save_failures and violations:
        os.makedirs(save_failures, exist_ok=True)
        for violation in violations:
            program = next(
                (p for p in programs if p.seed == violation.seed), None
            )
            if program is None:
                continue
            save_program(
                program.with_source(
                    program.source,
                    note="oracle %s: %s" % (violation.oracle,
                                            violation.detail),
                ),
                os.path.join(save_failures,
                             "seed-%d.fuzz" % violation.seed),
            )
    return {
        "seed": seed,
        "count": count,
        "pool_sample": min(pool_sample, count),
        "violations": [
            {"oracle": v.oracle, "seed": v.seed, "detail": v.detail}
            for v in violations
        ],
        "methods": dict(sorted(methods.items())),
        "features": dict(sorted(features.items())),
    }


def render_fuzz_report(report: dict) -> str:
    lines = [
        "# fuzz run",
        "",
        "seed %d, %d programs (engine-pool oracle on first %d)"
        % (report["seed"], report["count"], report["pool_sample"]),
        "",
        "access methods: " + ", ".join(
            "%s=%d" % item for item in report["methods"].items()
        ),
        "features: " + ", ".join(
            "%s=%d" % item for item in report["features"].items()
        ),
        "",
    ]
    if report["violations"]:
        lines.append("%d ORACLE VIOLATION(S):" % len(report["violations"]))
        for violation in report["violations"]:
            lines.append("  [seed %d] %s: %s" % (
                violation["seed"], violation["oracle"], violation["detail"]
            ))
    else:
        lines.append("no oracle violations")
    return "\n".join(lines)


def fuzz_replay(corpus_dir: str) -> dict:
    """Replay every corpus entry through all per-program oracles."""
    entries = load_corpus(corpus_dir)
    violations: list = []
    with verify_passes_env():
        for name, program in entries:
            for violation in run_oracles(program):
                violations.append((name, violation))
    return {
        "corpus": corpus_dir,
        "entries": [name for name, _ in entries],
        "violations": [
            {"entry": name, "oracle": v.oracle, "seed": v.seed,
             "detail": v.detail}
            for name, v in violations
        ],
    }


def render_replay_report(report: dict) -> str:
    lines = [
        "# fuzz replay",
        "",
        "%d corpus entr%s under %s" % (
            len(report["entries"]),
            "y" if len(report["entries"]) == 1 else "ies",
            report["corpus"],
        ),
    ]
    for name in report["entries"]:
        lines.append("  %s" % name)
    lines.append("")
    if report["violations"]:
        lines.append("%d ORACLE VIOLATION(S):" % len(report["violations"]))
        for violation in report["violations"]:
            lines.append("  [%s] %s: %s" % (
                violation["entry"], violation["oracle"], violation["detail"]
            ))
    else:
        lines.append("no oracle violations")
    return "\n".join(lines)


def _synthetic_predicate(program) -> bool:
    """The injected failure: program compiles and carries the marker."""
    from ..frontend import compile_source

    compile_source(program.source, name="fuzz-reduce")
    return MARKER_TEXT in program.source


def _oracle_predicate(oracle: str):
    """Reproduces iff some violation of the *same* oracle still fires."""

    def predicate(program) -> bool:
        return any(v.oracle == oracle for v in run_oracles(program))

    return predicate


def fuzz_reduce(seed: Optional[int] = None,
                corpus_file: Optional[str] = None,
                inject: bool = False,
                out: Optional[str] = None) -> dict:
    """Reduce a failing program; returns the reduction report.

    Exactly one of two modes:

    * ``inject=True`` (with ``seed``) — generate the program, inject
      the synthetic marker failure, reduce against it (self-test mode);
    * ``corpus_file`` — load a reproducer and reduce against its first
      real oracle violation.
    """
    with verify_passes_env():
        if inject:
            if seed is None:
                raise ValueError("--inject needs --seed")
            program = inject_marker(generate_program(seed))
            oracle = "synthetic-marker"
            predicate = _synthetic_predicate
        elif corpus_file:
            program = load_program(corpus_file)
            found = run_oracles(program)
            if not found:
                raise ValueError(
                    "%s triggers no oracle violation; nothing to reduce"
                    % corpus_file
                )
            oracle = found[0].oracle
            predicate = _oracle_predicate(oracle)
        else:
            raise ValueError("need --inject (with --seed) or a corpus file")
        result = reduce_program(program, predicate)
    if out:
        save_program(
            result.program.with_source(
                result.program.source,
                note="reduced reproducer (oracle %s), %d -> %d statements"
                     % (oracle, result.original_statements,
                        result.reduced_statements),
            ),
            out,
        )
    return {
        "oracle": oracle,
        "seed": program.seed,
        "original_statements": result.original_statements,
        "reduced_statements": result.reduced_statements,
        "ratio": round(result.ratio, 4),
        "checks": result.checks,
        "improvements": result.improvements,
        "source": result.program.source,
    }


def render_reduce_report(report: dict) -> str:
    return "\n".join([
        "# fuzz reduce",
        "",
        "oracle %s (seed %d): %d -> %d statements "
        "(%.0f%% of original, %d predicate checks, %d accepted edits)"
        % (report["oracle"], report["seed"],
           report["original_statements"], report["reduced_statements"],
           100.0 * report["ratio"], report["checks"],
           report["improvements"]),
        "",
        report["source"].rstrip(),
    ])


__all__ = [
    "DEFAULT_CORPUS_DIR", "DEFAULT_POOL_SAMPLE",
    "fuzz_run", "fuzz_replay", "fuzz_reduce",
    "render_fuzz_report", "render_replay_report", "render_reduce_report",
    "verify_passes_env", "OracleViolation",
]
