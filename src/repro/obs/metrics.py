"""Typed metrics: counters, gauges, histograms, and their registry.

Where :mod:`repro.obs.events` records *what happened* (an event log),
this module records *how much* — monotonically increasing counters,
point-in-time gauges, and bucketed histograms — the shape a run ledger
manifest or a dashboard wants.  Metrics are deliberately cheap and
always-on: recording one is a couple of float operations on a
pre-created object, so subsystems like the evaluation engine update
them unconditionally (per *job*, never per simulated instruction — the
hot interpretation and replay paths touch neither metrics nor the
collector when observability is disabled, and a test guards that).

Three ways to get numbers in:

* create and update metrics directly (``registry.counter("x").inc()``);
* :meth:`MetricsRegistry.from_events` — fold an existing
  :class:`~repro.obs.events.Collector` event list into a registry
  (counter events become counter sums *and* histograms of samples);
* :func:`get_registry` — the process-global default that the engine and
  tuner report into and run manifests snapshot.

``snapshot()`` returns plain JSON-able data with deterministic key
order, so two identical runs produce byte-identical metric documents.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: a 1-2.5-5 decade ladder wide
#: enough for both millisecond job times and unit-scale ratios.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "description", "value")
    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                "counter %r cannot decrease (amount %r)" % (self.name, amount)
            )
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "description", "value")
    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Bucketed samples plus count/sum/min/max.

    Buckets are cumulative upper bounds (Prometheus-style); every
    histogram has an implicit ``+Inf`` bucket, so ``observe`` never
    loses a sample.
    """

    __slots__ = ("name", "description", "bounds", "bucket_counts",
                 "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, description: str = "",
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.description = description
        bounds = tuple(sorted(buckets if buckets is not None
                              else DEFAULT_BUCKETS))
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram %r has duplicate buckets" % name)
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +Inf tail
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
        }
        if self.count:
            doc["min"] = self.min
            doc["max"] = self.max
        doc["buckets"] = {
            ("le_%g" % bound): count
            for bound, count in zip(self.bounds, self.bucket_counts)
            if count
        }
        if self.bucket_counts[-1]:
            doc["buckets"]["le_inf"] = self.bucket_counts[-1]
        return doc


class MetricsRegistry:
    """Named metrics with get-or-create accessors.

    Creation is thread-safe (a lock guards the name table); updates on
    the returned metric objects are plain attribute arithmetic.  Asking
    for an existing name with a different metric kind is an error —
    that is the "typed" in typed registry.
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name: str, description: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, description,
                                   buckets=buckets)

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric %r is a %s, not a %s"
                    % (name, metric.kind, cls.kind)
                )
            return metric

    # -- inspection ------------------------------------------------------------

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as plain data, sorted by name (deterministic)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot() for name in sorted(metrics)}

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    # -- aggregation from the event log ----------------------------------------

    @classmethod
    def from_events(cls, events: Iterable) -> "MetricsRegistry":
        """Fold a :class:`Collector` event list into a registry.

        * counter events aggregate twice: ``<name>`` sums the sampled
          values (total) and ``<name>.samples`` keeps their
          distribution as a histogram;
        * span events contribute a ``<name>.ms`` duration histogram;
        * instants contribute a plain occurrence counter.
        """
        registry = cls()
        for event in events:
            if event.kind == "counter":
                registry.counter(event.name).inc(max(event.value, 0.0))
                registry.histogram(event.name + ".samples").observe(
                    event.value
                )
            elif event.kind == "span":
                registry.histogram(event.name + ".ms").observe(
                    event.dur_ns / 1e6
                )
            else:
                registry.counter(event.name).inc()
        return registry


#: Process-global default registry: always present, always recording
#: (metric updates are cheap; nothing touches it per-instruction).
_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The current process-global metrics registry."""
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global default; returns the old one."""
    global _default
    old = _default
    _default = registry
    return old
