"""Observability layer: cycle-stamped event tracing, a metrics
registry (counters + histograms + time series), a host phase profiler,
and exporters (Perfetto ``trace_event`` JSON, plain-text run reports,
report diffs, collapsed flame stacks).

Tracing is off by default — every instrumented component points at the
shared :data:`~repro.obs.events.NULL_TRACER` until a real
:class:`~repro.obs.events.Tracer` is passed in (see
``python -m repro.obs trace``).  The phase profiler follows the same
null-object discipline (:data:`~repro.obs.prof.NULL_PROFILER`; enable
with ``REPRO_PROF=1`` or ``python -m repro.obs flame``) and never
changes simulation results.  The always-on metrics registry samples at
block granularity, so its overhead is unmeasurable next to the timing
simulation itself.
"""

from repro.obs.events import (
    CATEGORIES,
    DEFAULT_TRACE_CAPACITY,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    events_by_tile,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    TimeSeries,
    merge_registry_snapshots,
)
from repro.obs.perfetto import (
    add_profile_lanes,
    to_perfetto,
    validate_trace_events,
    write_trace,
)
from repro.obs.prof import NULL_PROFILER, NullProfiler, PhaseProfiler, merge_profiles
from repro.obs.report import (
    build_report,
    diff_reports,
    load_report,
    render_diff,
    render_report,
    save_report,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_TRACE_CAPACITY",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "events_by_tile",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "merge_registry_snapshots",
    "add_profile_lanes",
    "to_perfetto",
    "validate_trace_events",
    "write_trace",
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "merge_profiles",
    "build_report",
    "diff_reports",
    "load_report",
    "render_diff",
    "render_report",
    "save_report",
]
