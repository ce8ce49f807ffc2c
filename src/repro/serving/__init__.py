"""Serving observability for the async coordinator.

The delivery traces themselves are ordinary telemetry: while telemetry is
enabled the coordinator writes every dispatch's span tree (queue wait →
compute → network → buffer) and each flush's latency summary to the
telemetry tracer (:mod:`repro.federation.tracing`, which lives next to the
coordinator because :mod:`.loadtest` imports the coordinator).  This
package reads them (docs/OBSERVABILITY.md, "Serving observability"):

- :mod:`repro.serving.chrome` — Chrome trace-event JSON export
  (``repro trace export``), one lane per client speed tier plus a
  coordinator lane, loadable in Perfetto / ``chrome://tracing``;
- :mod:`repro.serving.loadtest` — the open-loop load-test harness
  (``repro loadtest``): arrival-trace replay at swept offered rates,
  latency percentiles from telemetry histograms, and saturation-knee
  detection, all in CostModel virtual time.

With telemetry off the coordinator makes no span, and tracing never
changes training numerics or run records.
"""

from .chrome import (
    chrome_trace_events,
    export_chrome_trace,
    load_spans_jsonl,
    write_chrome_trace,
)
from .loadtest import (
    DEFAULT_KNEE_FRACTION,
    DEFAULT_RATE_FACTORS,
    LoadTestConfig,
    detect_knee,
    run_loadtest,
    run_loadtest_point,
)
from ..federation.tracing import SERVING_STAGES

__all__ = [
    "DEFAULT_KNEE_FRACTION",
    "DEFAULT_RATE_FACTORS",
    "LoadTestConfig",
    "SERVING_STAGES",
    "chrome_trace_events",
    "detect_knee",
    "export_chrome_trace",
    "load_spans_jsonl",
    "run_loadtest",
    "run_loadtest_point",
    "write_chrome_trace",
]
