"""Structured-event core: spans, counters, and the collector.

Zero-dependency observability primitives for the whole stack.  Three
event kinds cover everything the compiler and runtime need to explain
themselves:

* ``span``    — a named, timed region (a compiler pass, a scheduler
  run), with nesting tracked per thread;
* ``instant`` — a point-in-time fact (an access-phase decision, a
  profiler warning);
* ``counter`` — a named numeric sample (cache-miss snapshots, steal
  counts).

The process-global default collector is **disabled** at import time and
is a strict no-op in that state: instrumented hot paths pay only a
truthiness check (``if collector.enabled``), and ``Collector.span``
returns a shared null context manager without allocating.  Enable it
with :func:`enable` (or install a private collector with
:func:`set_collector` / the :func:`collecting` context manager) to start
recording.  The collector is thread-safe; events carry a small stable
``tid`` so exported traces keep one track per thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "Event",
    "Collector",
    "get_collector",
    "set_collector",
    "enable",
    "disable",
    "enabled",
    "collecting",
]


@dataclass
class Event:
    """One recorded observation.

    ``ts_ns`` is wall-clock (``time.perf_counter_ns``) relative to the
    collector's epoch, so a fresh collector starts near zero.  ``dur_ns``
    is meaningful only for spans.  ``value`` is meaningful only for
    counters.  ``depth`` is the span-nesting level at emission time (0 =
    top level), letting reports re-indent the pass pipeline without
    re-deriving the tree.
    """

    name: str
    kind: str                       # 'span' | 'instant' | 'counter'
    ts_ns: int
    cat: str = ""
    dur_ns: int = 0
    tid: int = 0
    depth: int = 0
    value: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict for the JSONL exporter (stable key order)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "ts_ns": self.ts_ns,
            "cat": self.cat,
            "tid": self.tid,
        }
        if self.kind == "span":
            out["dur_ns"] = self.dur_ns
            out["depth"] = self.depth
        if self.kind == "counter":
            out["value"] = self.value
        if self.args:
            out["args"] = self.args
        return out


class _NullSpan:
    """Shared no-op context manager handed out while disabled."""

    __slots__ = ()
    #: Writable-looking arg sink; mutations are dropped.  A fresh dict
    #: per __enter__ would defeat the "no allocation when disabled"
    #: goal, so instrumented code must treat ``span.args`` as
    #: write-only.
    args: Dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        _NullSpan.args.clear()
        return self

    def __exit__(self, *exc) -> None:
        _NullSpan.args.clear()


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span handle: records a 'span' event when the with-block exits.

    ``args`` may be mutated inside the block (e.g. to attach a pass's
    change count once known).
    """

    __slots__ = ("_collector", "name", "cat", "args", "_start_ns", "_tid", "_depth")

    def __init__(self, collector: "Collector", name: str, cat: str,
                 args: Optional[Dict[str, Any]]):
        self._collector = collector
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else {}

    def __enter__(self) -> "_Span":
        self._tid, self._depth = self._collector._push_span()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = time.perf_counter_ns()
        self._collector._pop_span()
        if exc_type is not None:
            self.args.setdefault("error", "%s: %s" % (exc_type.__name__, exc))
        self._collector._record(Event(
            name=self.name,
            kind="span",
            ts_ns=self._start_ns - self._collector.epoch_ns,
            cat=self.cat,
            dur_ns=end_ns - self._start_ns,
            tid=self._tid,
            depth=self._depth,
            args=self.args,
        ))


class Collector:
    """Thread-safe in-memory event sink.

    All mutating entry points early-return when ``enabled`` is false, so
    a disabled collector can be threaded through hot paths for free.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.epoch_ns = time.perf_counter_ns()
        self._events: List[Event] = []
        self._lock = threading.Lock()
        self._tids: Dict[int, int] = {}          # thread ident -> small tid
        self._depths: Dict[int, int] = {}        # tid -> open span count

    # -- emission ------------------------------------------------------------

    def span(self, name: str, cat: str = "",
             args: Optional[Dict[str, Any]] = None):
        """Context manager timing a region; no-op (and allocation-free)
        while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "",
                args: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        tid, depth = self._tid_depth()
        self._record(Event(
            name=name, kind="instant",
            ts_ns=time.perf_counter_ns() - self.epoch_ns,
            cat=cat, tid=tid, depth=depth,
            args=dict(args) if args else {},
        ))

    def counter(self, name: str, value: float, cat: str = "",
                args: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        tid, depth = self._tid_depth()
        self._record(Event(
            name=name, kind="counter",
            ts_ns=time.perf_counter_ns() - self.epoch_ns,
            cat=cat, tid=tid, depth=depth, value=float(value),
            args=dict(args) if args else {},
        ))

    # -- inspection ----------------------------------------------------------

    def events(self) -> List[Event]:
        """Snapshot copy of everything recorded so far."""
        with self._lock:
            return list(self._events)

    def select(self, name: Optional[str] = None,
               cat: Optional[str] = None) -> List[Event]:
        """Events filtered by exact name and/or category prefix."""
        out = []
        for event in self.events():
            if name is not None and event.name != name:
                continue
            if cat is not None and not event.cat.startswith(cat):
                continue
            out.append(event)
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- internals -----------------------------------------------------------

    def _record(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)

    def _tid_depth(self) -> tuple:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids))
            return tid, self._depths.get(tid, 0)

    def _push_span(self) -> tuple:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids))
            depth = self._depths.get(tid, 0)
            self._depths[tid] = depth + 1
            return tid, depth

    def _pop_span(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is not None and self._depths.get(tid, 0) > 0:
                self._depths[tid] -= 1


#: Process-global default: present everywhere, recording nowhere until
#: explicitly enabled.
_default = Collector(enabled=False)


def get_collector() -> Collector:
    """The current process-global collector (possibly disabled)."""
    return _default


def set_collector(collector: Collector) -> Collector:
    """Install ``collector`` as the global default; returns the old one."""
    global _default
    old = _default
    _default = collector
    return old


def enable() -> Collector:
    """Enable the global collector and return it."""
    _default.enabled = True
    return _default


def disable() -> Collector:
    """Disable (but keep) the global collector; recorded events remain."""
    _default.enabled = False
    return _default


def enabled() -> bool:
    return _default.enabled


class collecting:
    """``with collecting() as col:`` — install a fresh enabled collector
    for the duration of the block, restoring the previous default after.
    """

    def __init__(self, collector: Optional[Collector] = None):
        # NB: explicit None check — an empty Collector is falsy (len 0).
        self.collector = (
            collector if collector is not None else Collector(enabled=True)
        )
        self._saved: Optional[Collector] = None

    def __enter__(self) -> Collector:
        self._saved = set_collector(self.collector)
        return self.collector

    def __exit__(self, *exc) -> None:
        if self._saved is not None:
            set_collector(self._saved)
