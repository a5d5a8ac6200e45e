"""Pipeline-wide observability: spans, metrics, trace export.

One coherent layer replaces the ad-hoc timing code that used to be
scattered across the engine, the fuzzer and the service:

* :mod:`repro.obs.tracer` — hierarchical :class:`Span` trees with **dual
  timestamps** (deterministic simulated-clock milliseconds next to real
  ``perf_counter`` milliseconds), produced by a thread-safe
  :class:`Tracer` that every rebuild writes into.  A rebuild decomposes
  into ``schedule -> extract -> instrument -> compile(per-fragment,
  per-pass) -> link``.
* :mod:`repro.obs.metrics` — the shared :class:`MetricsRegistry`
  (counters, gauges, latency percentiles with a deterministic
  whole-lifetime reservoir).
* :mod:`repro.obs.trace` — Chrome ``trace_event`` JSON export (load the
  file in ``chrome://tracing`` / Perfetto) plus a text flame summary;
  surfaced as ``repro trace <program>`` and ``--trace-out`` on
  ``repro fuzz`` / ``repro serve``.
"""

from repro.obs.metrics import (
    LatencyStat,
    MetricsRegistry,
    format_stats,
)
from repro.obs.trace import (
    flame_summary,
    pass_totals,
    stage_totals,
    to_trace_events,
    trace_json,
    validate_trace_events,
    write_trace,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "LatencyStat",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "flame_summary",
    "format_stats",
    "pass_totals",
    "stage_totals",
    "to_trace_events",
    "trace_json",
    "validate_trace_events",
    "write_trace",
]
