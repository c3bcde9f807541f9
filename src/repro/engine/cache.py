"""Persistent on-disk cache of profiling products.

A second ``python -m repro.evaluation`` run should be near-instant: the
expensive static products (compile + three profiled schemes) are pure
functions of (workload source, compile options, machine, scale,
package version), so they are content-addressed by the SHA-256 of that
key material and stored as JSON under ``~/.cache/repro-dae/`` (override
with ``REPRO_CACHE_DIR`` or the ``cache_dir`` spec field / ``--cache-dir``
flag).

Every entry stores its full key material next to the payload; a load
whose stored material does not byte-match the probe (hash collision,
hand-edited file, stale format) is *explicitly invalidated* — the entry
is deleted and reported as a miss.  Jobs whose options carry
non-hashable state (a branch-profiler callable, a hot-path profile)
are simply not cacheable and bypass the cache entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..runtime.task import Scheme
from ..sim.config import CacheConfig, MachineConfig
from ..transform.access_phase import AccessPhaseOptions
from ..workloads.base import Workload
from .products import PAYLOAD_FORMAT

#: Default cache root (under the user's home unless overridden).
DEFAULT_CACHE_DIR = "~/.cache/repro-dae"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def _package_version() -> str:
    from .. import __version__
    return __version__


def _config_material(config: MachineConfig) -> dict:
    """MachineConfig as plain data (field order independent of repr)."""
    doc = {}
    for name in sorted(config.__dataclass_fields__):
        value = getattr(config, name)
        if isinstance(value, CacheConfig):
            value = {
                "size_bytes": value.size_bytes, "ways": value.ways,
                "line_bytes": value.line_bytes,
                "latency_cycles": value.latency_cycles,
            }
        elif name == "operating_points":
            value = [[p.freq_ghz, p.voltage] for p in value]
        doc[name] = value
    return doc


def _options_material(options: Optional[AccessPhaseOptions]) -> Optional[dict]:
    """AccessPhaseOptions as plain data, or None when not hashable."""
    options = options or AccessPhaseOptions()
    if options.profiler is not None:
        return None
    skeleton = options.skeleton
    if skeleton.hot_path_profile is not None:
        return None
    skeleton_doc = {}
    for name in sorted(skeleton.__dataclass_fields__):
        if name == "hot_path_profile":
            continue
        skeleton_doc[name] = getattr(skeleton, name)
    return {
        "hull_threshold": options.hull_threshold,
        "merge_nests": options.merge_nests,
        "force_method": options.force_method,
        "skeleton": skeleton_doc,
    }


def machine_material(machine) -> dict:
    """A :class:`~repro.machines.model.MachineModel` as plain data.

    Content-addresses the full *description* — per-type configs,
    counts, transition and placement — not just the registered name,
    so re-registering a name with different silicon can never serve a
    stale product.
    """
    return {
        "name": machine.name,
        "transition": {
            "kind": machine.transition.kind,
            "latency_ns": machine.transition.latency_ns,
            "flush": machine.transition.flush,
        },
        "access_type": machine.access_type,
        "execute_type": machine.execute_type,
        "core_types": [
            {
                "name": core_type.name,
                "count": core_type.count,
                "config": _config_material(core_type.config),
            }
            for core_type in machine.core_types
        ],
    }


def key_material(workload: Workload, scale: int, machine,
                 options: Optional[AccessPhaseOptions],
                 schemes: Sequence[Union[Scheme, str]]) -> Optional[dict]:
    """Everything the cached product is a function of, as plain data.

    ``machine`` is the :class:`~repro.machines.model.MachineModel` the
    product is profiled on.  Returns ``None`` when the job is not
    cacheable (options carry callables whose behaviour cannot be
    hashed).
    """
    options_doc = _options_material(options)
    if options_doc is None:
        return None
    return {
        "format": PAYLOAD_FORMAT,
        "version": _package_version(),
        "workload": workload.name,
        "source": workload.source(),
        "scale": int(scale),
        "schemes": sorted(str(Scheme(s).value) for s in schemes),
        "machine": machine_material(machine),
        "options": options_doc,
    }


def cache_key(material: dict) -> str:
    """Content hash of the canonical JSON encoding of ``material``."""
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """What ``cache stats`` reports."""

    root: str
    entries: int
    total_bytes: int

    def render(self) -> str:
        return "\n".join([
            "cache root:    %s" % self.root,
            "entries:       %d" % self.entries,
            "total size:    %.1f KiB" % (self.total_bytes / 1024.0),
        ])


class ProfileCache:
    """Content-addressed JSON store of profiling payloads."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        root = root or os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser()

    def path_for(self, workload_name: str, key: str) -> Path:
        return self.root / ("%s-%s.json" % (workload_name, key[:16]))

    def load(self, workload_name: str, key: str,
             material: dict) -> Optional[dict]:
        """The stored payload, or ``None`` on miss.

        A present entry whose stored key material differs from
        ``material`` (or that fails to parse) is deleted — explicit
        invalidation instead of serving a wrong product.
        """
        path = self.path_for(workload_name, key)
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        if doc.get("material") != material:
            self._discard(path)
            return None
        payload = doc.get("payload")
        return payload if isinstance(payload, dict) else None

    def store(self, workload_name: str, key: str, material: dict,
              payload: dict) -> Optional[Path]:
        """Atomically persist one entry; returns its path (or ``None``
        when the cache directory is unwritable — caching is best-effort,
        never a hard failure)."""
        path = self.path_for(workload_name, key)
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        # ``json.dumps``, not ``json.dump``: only ``dumps`` runs the C
        # encoder; the text is the same.
        text = json.dumps({"material": material, "payload": payload})
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)
            return None
        return path

    def stats(self) -> CacheStats:
        entries = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                entries += 1
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return CacheStats(
            root=str(self.root), entries=entries, total_bytes=total
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                if self._discard(path):
                    removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False
