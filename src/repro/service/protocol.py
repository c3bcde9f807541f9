"""The wire protocol: JSON lines over a local unix socket.

Every request and response is one JSON document on one ``\\n``-
terminated line.  Requests carry an ``op`` (``submit`` / ``status`` /
``result`` / ``cancel`` / ``stats`` / ``ping`` / ``shutdown``);
responses carry ``ok`` plus either the body or a structured error
(``error`` code and human-readable ``detail``).  The error codes are
part of the API — in particular ``overloaded``, which is how admission
control rejects work instead of hanging the caller.

Spec documents travel as plain JSON (:func:`spec_to_doc` /
:func:`spec_from_doc`); unknown keys are rejected loudly via
:meth:`ExperimentSpec.from_kwargs`, so a typo'd knob fails at submit
time instead of silently profiling the wrong thing.  Results are
serialized exactly once with :func:`canonical_dumps` — deterministic
key order and float repr — and the stored text is spliced verbatim
into every waiter's response, which is what makes coalesced results
*byte*-identical rather than merely equal.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from ..engine.cache import DEFAULT_CACHE_DIR, ENV_CACHE_DIR, machine_material
from ..engine.cache import cache_key as _cache_key
from ..engine.products import run_to_payload
from ..engine.spec import EngineResult, ExperimentSpec
from ..machines.model import MachineModel, as_machine
from ..runtime.task import Scheme

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_SOCKET",
    "ENV_SERVICE_SOCKET",
    "ERROR_OVERLOADED",
    "ERROR_BAD_REQUEST",
    "ERROR_UNKNOWN_JOB",
    "ERROR_JOB_FAILED",
    "ERROR_SHUTTING_DOWN",
    "ERROR_TIMEOUT",
    "canonical_dumps",
    "default_socket_path",
    "spec_to_doc",
    "spec_from_doc",
    "tune_from_doc",
    "job_key",
    "engine_result_doc",
    "error_doc",
]

PROTOCOL_VERSION = 1

#: Environment override for the default socket location.
ENV_SERVICE_SOCKET = "REPRO_SERVICE_SOCKET"

# Structured error codes (the ``error`` field of a failed response).
ERROR_OVERLOADED = "overloaded"          # queue at capacity; retry later
ERROR_BAD_REQUEST = "bad-request"        # malformed op / spec / arguments
ERROR_UNKNOWN_JOB = "unknown-job"        # no such job id
ERROR_JOB_FAILED = "job-failed"          # the job raised; detail names it
ERROR_SHUTTING_DOWN = "shutting-down"    # submit during drain
ERROR_TIMEOUT = "timeout"                # result wait or job ran too long


def default_socket_path() -> str:
    """``$REPRO_SERVICE_SOCKET``, else ``<cache root>/service.sock``."""
    override = os.environ.get(ENV_SERVICE_SOCKET)
    if override:
        return override
    base = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
    return os.path.join(os.path.expanduser(base), "service.sock")


#: Evaluated lazily in most call sites; kept for display/default help.
DEFAULT_SOCKET = default_socket_path()


def canonical_dumps(doc: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def error_doc(code: str, detail: str, **extra: Any) -> Dict[str, Any]:
    doc = {"ok": False, "error": code, "detail": detail}
    doc.update(extra)
    return doc


# -- spec documents ------------------------------------------------------------

#: ExperimentSpec knobs representable on the wire.  A machine travels
#: by registered name (``None``: the default config's machine).
#: ``options`` has no JSON form.  Nor does ``interp`` travel: both
#: interpreters give byte-identical profiles, so the choice cannot
#: change a result.
WIRE_SPEC_FIELDS = (
    "workloads", "schemes", "scale", "jobs", "cache", "cache_dir",
    "timeout_s", "machine",
)


def _wire_machine(machine: MachineModel) -> Optional[str]:
    """The name ``machine`` travels under: ``None`` for the default
    config's machine, else its registered name."""
    for name in (None, *MachineModel.registered_names()):
        if as_machine(name) == machine:
            return name
    raise ValueError(
        "ExperimentSpec.machine %r is not wire-representable: a machine "
        "travels by registered name, or as None for the default"
        % (machine.name,)
    )


def spec_to_doc(spec: ExperimentSpec) -> Dict[str, Any]:
    """``spec`` as a wire document.  Raises for a machine that is
    neither the default nor a registered one, and for non-default
    ``options``, which have no JSON form; ``interp`` is left out, as
    it changes no result."""
    machine = _wire_machine(spec.machine)
    if spec.options is not None:
        raise ValueError(
            "ExperimentSpec.options is not wire-representable"
        )
    workloads = []
    for item in spec.resolve_workloads():
        workloads.append(item.name)
    return {
        "workloads": workloads,
        "schemes": [s.value for s in spec.schemes],
        "scale": spec.scale,
        "jobs": spec.jobs,
        "cache": spec.cache,
        "cache_dir": spec.cache_dir,
        "timeout_s": spec.timeout_s,
        "machine": machine,
    }


def spec_from_doc(doc: Dict[str, Any]) -> ExperimentSpec:
    """Rebuild an :class:`ExperimentSpec` from a wire document.

    Strict: unknown keys raise (via :meth:`ExperimentSpec.from_kwargs`)
    listing the valid fields, so client typos surface at submit time.
    """
    if not isinstance(doc, dict):
        raise ValueError("spec must be a JSON object, got %r" % (doc,))
    unknown = set(doc) - set(WIRE_SPEC_FIELDS)
    if unknown:
        from ..engine.products import EngineError
        raise EngineError(
            "unknown ExperimentSpec field(s) %s; valid wire fields: %s"
            % (", ".join(sorted(repr(k) for k in unknown)),
               ", ".join(WIRE_SPEC_FIELDS))
        )
    kwargs: Dict[str, Any] = {}
    for name in WIRE_SPEC_FIELDS:
        if name in doc and doc[name] is not None:
            kwargs[name] = doc[name]
    if "workloads" in kwargs:
        kwargs["workloads"] = tuple(kwargs["workloads"])
    if "schemes" in kwargs:
        kwargs["schemes"] = tuple(
            Scheme(s) if isinstance(s, str) else s
            for s in kwargs["schemes"]
        )
    return ExperimentSpec.from_kwargs(**kwargs)


def tune_from_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a tune-job document into ``tune_workload`` kwargs."""
    allowed = ("workload", "objective", "strategy", "scheme", "scale",
               "cache", "cache_dir", "machine")
    if not isinstance(doc, dict):
        raise ValueError("tune must be a JSON object, got %r" % (doc,))
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(
            "unknown tune field(s) %s; valid fields: %s"
            % (", ".join(sorted(repr(k) for k in unknown)),
               ", ".join(allowed))
        )
    if "workload" not in doc:
        raise ValueError("tune requires a 'workload' name")
    return {key: doc[key] for key in allowed
            if key in doc and doc[key] is not None}


# -- dedup keys and result documents -------------------------------------------


def job_key(kind: str, doc: Dict[str, Any]) -> str:
    """Content digest identical requests share (the coalescing key).

    Only result-determining knobs participate: execution knobs
    (``jobs``, ``cache``, ``timeout_s`` — all bit-identical by
    contract) are excluded, so e.g. a ``jobs=4`` and a ``jobs=1``
    submission of the same matrix coalesce.
    """
    if kind == "experiment":
        spec = spec_from_doc(doc)
        material = {
            "kind": "service-experiment",
            "workloads": [w.name for w in spec.resolve_workloads()],
            "schemes": [s.value for s in spec.schemes],
            "scale": spec.scale,
            "machine": machine_material(spec.machine),
        }
    elif kind == "tune":
        kwargs = tune_from_doc(doc)
        material = {
            "kind": "service-tune",
            "workload": kwargs["workload"],
            "objective": str(kwargs.get("objective", "edp")),
            "strategy": kwargs.get("strategy", "all"),
            "scheme": str(kwargs.get("scheme", "dae")),
            "scale": kwargs.get("scale", 1),
            "machine": machine_material(as_machine(kwargs.get("machine"))),
        }
    else:
        raise ValueError("unknown job kind %r" % (kind,))
    return _cache_key(material)


def engine_result_doc(result: EngineResult) -> Dict[str, Any]:
    """An :class:`EngineResult` as a deterministic wire document.

    Contains only simulation-derived data (the per-workload payloads);
    volatile execution facts — cache hits, pool/serial split, elapsed
    wall clock — are deliberately excluded so a cached and a freshly
    profiled run of the same spec serialize to identical bytes.
    """
    return {
        "kind": "experiment",
        "scale": result.spec.scale,
        "schemes": [s.value for s in result.spec.schemes],
        "workloads": {
            name: run_to_payload(run) for name, run in result.items()
        },
    }


def encode_line(doc: Dict[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse one request line; ``None`` for blank/unparseable input."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        return None
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None
