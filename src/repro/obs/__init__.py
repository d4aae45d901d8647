"""Observability: end-to-end tracing + metrics for the GPUMEM stack.

The paper's evaluation is a where-does-time-go story (index build vs.
extraction, per-kernel occupancy, load-balancing gains — Tables III–IV,
Figs. 4–7); this package makes the reproduction answer those questions on
every run instead of through ad-hoc stats keys:

- :class:`~repro.obs.tracer.Tracer` — nested spans over the pipeline
  stages, process dispatch, sessions, kernel launches, and memory
  transfers.
  Thread one ``tracer=`` argument through ``GpuMem`` / ``MemSession`` /
  ``Pipeline`` / ``Device`` and the whole run is recorded.
- :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters, gauges,
  and histograms (seeds/MEMs per stage, cache hits, load-balance
  redistribution, kernel launches); carried by the tracer as
  ``tracer.metrics``.
- :mod:`repro.obs.export` — Chrome-trace JSON (``chrome://tracing`` /
  Perfetto), a text span tree, a flat metrics dump, and the validator the
  tests and CI run against produced traces.

CLI: ``gpumem match --trace out.json --metrics`` records a run;
``gpumem trace out.json`` inspects one. See ``docs/observability.md`` for
the span taxonomy and metric names.
"""

from repro.obs.export import (
    format_event_tree,
    format_span_tree,
    load_chrome_trace,
    metrics_to_json,
    to_chrome_trace,
    top_spans,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    series_name,
)
from repro.obs.shipping import (
    SPAN_SHIP_CAP,
    ObsPayload,
    WorkerObs,
    merge_payload,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer, get_tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_TRACER",
    "get_tracer",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_METRICS",
    "series_name",
    "ObsPayload",
    "WorkerObs",
    "merge_payload",
    "SPAN_SHIP_CAP",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_chrome_trace",
    "format_span_tree",
    "format_event_tree",
    "top_spans",
    "metrics_to_json",
]
