"""Observability: structured events, metrics, timelines, run ledger.

The subsystem the rest of the stack reports into:

* :mod:`repro.obs.events` — spans / instants / counters and the
  thread-safe :class:`Collector` (process-global default is a no-op
  until enabled);
* :mod:`repro.obs.metrics` — typed counters / gauges / histograms in a
  :class:`MetricsRegistry` (always-on, snapshot-to-dict, can also be
  folded from a collector's event list);
* :mod:`repro.obs.timeline` — per-core simulated-time schedule
  timelines recorded by the DVFS scheduler, now carrying per-segment
  :class:`~repro.power.model.EnergyBreakdown` and rolled up by
  :func:`energy_attribution`;
* :mod:`repro.obs.ledger` — the persistent run ledger: one JSON
  manifest per recorded run under ``$REPRO_CACHE_DIR/runs/`` plus
  :func:`compare_runs` / :func:`render_comparison` regression diffing;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto; priced segments add per-core power/energy counter tracks)
  and flat JSONL;
* :mod:`repro.obs.report` — plain-text explain reports (compiler
  decisions, pass times, Figure-4-style phase breakdowns, energy
  attribution tables).

Typical use::

    from repro import obs

    with obs.collecting() as col:
        ...compile / profile / schedule...
    obs.write_chrome_trace("out.trace.json", col.events(), timelines)
    print(obs.explain_report("cholesky", col.events()))
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "events": ("Collector", "Event", "collecting", "disable", "enable",
               "enabled", "get_collector", "set_collector"),
    "export": ("to_chrome_trace", "to_jsonl", "write_chrome_trace",
               "write_jsonl"),
    "ledger": ("MANIFEST_FORMAT", "RunComparison", "RunLedger",
               "RunManifest", "compare_runs", "ledger_root",
               "render_comparison"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "get_registry", "set_registry"),
    "report": ("explain_report", "render_compiler_decisions",
               "render_energy_breakdown", "render_loop_detail",
               "render_pass_summary", "render_phase_breakdown",
               "render_timeline_breakdown", "render_warnings"),
    "timeline": ("SEGMENT_KINDS", "Timeline", "TimelineSegment",
                 "energy_attribution"),
})
