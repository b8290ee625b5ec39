"""repro.obs — observability for simulated runs.

The measurement substrate the reproduction's perf work builds on
(see OBSERVABILITY.md):

- :mod:`repro.obs.events`        — typed, virtual-clock-stamped events,
- :mod:`repro.obs.tracer`        — the deterministic event collector,
- :mod:`repro.obs.metrics`       — per-rank counters/gauges/histograms,
- :mod:`repro.obs.export`        — Chrome/Perfetto ``trace.json`` and
  machine-readable run-metrics JSON,
- :mod:`repro.obs.critical_path` — event-graph critical path and
  makespan attribution (the "bottleneck table"),
- :mod:`repro.obs.compare`       — diff two bench JSONs, flag
  regressions,
- :mod:`repro.obs.bench`         — emit ``BENCH_*.json`` from the
  table1/fig3a experiments.

Tracing is off unless a :class:`Tracer` is passed into
``repro.simmpi.launcher.run`` (or ``--trace`` on the CLI); the hooks
cost one ``is not None`` check when disabled and never alter simulated
time, so traced and untraced runs produce identical results.
"""

from repro._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "events": (
        "EV_CKPT", "EV_COLL", "EV_FAULT", "EV_IO", "EV_IO_COLL", "EV_KILL",
        "EV_PHASE", "EV_QUERY", "EV_RECV", "EV_SEND", "EV_STREAMS",
        "EV_WAIT", "SCHEDULER_RANK", "SPAN_KINDS", "Event",
    ),
    "latency": (
        "PERCENTILES", "flatten_latency", "latency_summary", "percentile",
    ),
    "critical_path": (
        "CriticalPath", "PathSegment", "attribute_makespan",
        "breakdown_from_events", "critical_path",
        "phase_seconds_from_events", "render_bottleneck_table",
    ),
    "export": (
        "chrome_trace", "run_metrics", "write_chrome_trace",
        "write_run_metrics",
    ),
    "metrics": ("Histogram", "MetricsRegistry"),
    "tracer": ("Tracer",),
})
