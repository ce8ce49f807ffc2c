"""Serving observability for the async coordinator.

Three pieces (docs/OBSERVABILITY.md, "Serving observability"):

- :mod:`repro.serving.tracing` — causal delivery tracing: every dispatch
  becomes a span tree (queue wait → compute → network → buffer) closed at
  its terminal event, plus per-flush latency summaries;
- :mod:`repro.serving.chrome` — Chrome trace-event JSON export
  (``repro trace export``), one lane per client speed tier plus a
  coordinator lane, loadable in Perfetto / ``chrome://tracing``;
- :mod:`repro.serving.loadtest` — the open-loop load-test harness
  (``repro loadtest``): arrival-trace replay at swept offered rates,
  latency percentiles from telemetry histograms, and saturation-knee
  detection, all in CostModel virtual time.

Everything is off by default: without ``delivery_tracing`` the
coordinator takes no serving-related branch, so training numerics and
runrecords stay bit-identical.
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
from .tracing import SERVING_STAGES, DeliveryTraceRecorder

__all__ = [
    "DEFAULT_KNEE_FRACTION",
    "DEFAULT_RATE_FACTORS",
    "DeliveryTraceRecorder",
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
