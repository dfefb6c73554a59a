"""Observability: one instrumentation primitive, the registry it
feeds, and the reports over both (see ``docs/observability.md``).

* :mod:`repro.observability.trace` — :func:`span` and :func:`event`,
  the two calls every instrumented site goes through: a span always
  times into a ``phase_seconds.*`` histogram and an event always lands
  in the flight ring; while tracing, both are also written to a
  kill-safe JSON-lines trace.  Phase attribution over registry
  snapshots lives here too.
* :mod:`repro.observability.metrics` — dependency-free counters, gauges,
  and timing histograms behind a process-local registry whose snapshots
  merge associatively across worker processes.
* :mod:`repro.observability.flightrec` — the always-on bounded ring of
  recent events, dumped kill-safely to JSON lines on supervisor faults.
* :mod:`repro.observability.stats` — aggregation of a trace file into
  the human-readable report served by ``repro.cli stats``.
* :mod:`repro.observability.export` — Prometheus-text / JSON exporters
  over registry snapshots and the ``live.json`` campaign telemetry file
  behind ``repro campaign watch``.

Only ``metrics``, ``trace``, and ``flightrec`` are imported eagerly:
low-level modules (``repro.graphs.traversal``) import the registry from
here, so ``stats`` — which pulls in the analysis layer — is loaded
lazily via PEP 562 to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.observability.flightrec import (
    FLIGHT,
    FlightRecorder,
    find_flight_dumps,
    read_flight_dump,
)
from repro.observability.metrics import (
    BoundCounter,
    BoundHistogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)
from repro.observability.trace import (
    TRACER,
    JsonlTraceRecorder,
    attribution_coverage,
    event,
    merge_trace_shards,
    phase_attribution,
    read_trace,
    set_phase_scope,
    span,
    tracing,
)

__all__ = [
    "BoundCounter",
    "BoundHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "TRACER",
    "JsonlTraceRecorder",
    "tracing",
    "read_trace",
    "merge_trace_shards",
    "span",
    "event",
    "set_phase_scope",
    "phase_attribution",
    "attribution_coverage",
    "FlightRecorder",
    "FLIGHT",
    "find_flight_dumps",
    "read_flight_dump",
    "aggregate",
    "aggregate_file",
    "render_stats",
    "render_phase_table",
    "format_metrics",
]

_LAZY_STATS = {
    "aggregate",
    "aggregate_file",
    "render_stats",
    "render_phase_table",
    "format_metrics",
}


def __getattr__(name: str):
    if name in _LAZY_STATS:
        from repro.observability import stats

        return getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
