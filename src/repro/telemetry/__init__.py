"""Telemetry for the FL stack: tracing, metrics, algorithm diagnostics.

The subsystem has four parts (see ``docs/OBSERVABILITY.md``):

- **spans** — nestable timed sections (``round`` > ``client`` >
  ``aggregate``) recorded by a :class:`Tracer` against an injectable clock,
  plus the async coordinator's virtual-time ``serving.*`` delivery trees
  (:mod:`repro.federation.tracing`), written whenever telemetry is on;
- **metrics** — a :class:`MetricRegistry` of counters, gauges and
  histograms (``round.wall_seconds``, ``transport.uplink_bytes``,
  ``agg.expelled``, ...);
- **diagnostics** — one :class:`AlgoDiagnostics` per round holding what
  the algorithm decided (TACO's alpha_i and strikes, Scaffold's control
  norms, the live Y_t proxy), streamed as an ``algo.diagnostics`` event
  and kept on the round's :class:`~repro.fl.history.RoundRecord`, so
  checkpoints, resumes and guard rollbacks carry it with the round;
- **exporters** — JSONL event stream, Prometheus text dump and a console
  summary, selected with ``repro run ... --telemetry jsonl:out/trace.jsonl``.

Instrumented code calls :func:`get_telemetry`, the program's one
observation global; the default is a shared no-op whose cost is one call +
branch per site, keeping tier-1 numerics bit-identical when telemetry is
off.
"""

from .clock import FakeClock, MonotonicClock
from .diagnostics import AlgoDiagnostics
from .exporters import (
    ConsoleExporter,
    Exporter,
    InMemoryExporter,
    JsonlExporter,
    PrometheusExporter,
    escape_label_value,
    load_registry_jsonl,
    make_exporter,
    prometheus_name,
    render_prometheus,
)
from .hub import (
    NOOP,
    NoopTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from .metrics import Counter, Gauge, Histogram, MetricRegistry, registry_from_snapshot
from .spans import SpanRecord, Tracer

__all__ = [
    "MonotonicClock",
    "FakeClock",
    "Tracer",
    "SpanRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Exporter",
    "InMemoryExporter",
    "JsonlExporter",
    "PrometheusExporter",
    "ConsoleExporter",
    "make_exporter",
    "prometheus_name",
    "render_prometheus",
    "escape_label_value",
    "load_registry_jsonl",
    "registry_from_snapshot",
    "Telemetry",
    "NoopTelemetry",
    "NOOP",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "AlgoDiagnostics",
]
