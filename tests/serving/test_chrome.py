"""Chrome trace-event export: event shape, lane mapping, JSONL round trip."""

import json

import pytest

from repro.federation.tracing import trace_delivery, trace_flush
from repro.serving import (
    chrome_trace_events,
    export_chrome_trace,
    load_spans_jsonl,
    write_chrome_trace,
)
from repro.telemetry import Telemetry
from repro.telemetry.spans import Tracer


def make_spans():
    tracer = Tracer()
    tracer.add_span("serving.flush", start=0.5, end=0.5, lane="coordinator", updates=2)
    tracer.add_span(
        "serving.delivery", start=0.0, end=0.5, lane="tier:fast", client=3
    )
    tracer.add_span("round", start=0.0, end=1.25)  # wall-clock span, no lane
    return tracer.finished


class TestEventShape:
    def test_complete_events_are_well_formed(self):
        events = chrome_trace_events(make_spans())
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_microsecond_scaling(self):
        events = chrome_trace_events(make_spans())
        delivery = next(e for e in events if e["name"] == "serving.delivery")
        assert delivery["ts"] == 0
        assert delivery["dur"] == 500_000
        wall = next(e for e in events if e["name"] == "round")
        assert wall["dur"] == 1_250_000

    def test_lane_routing(self):
        events = chrome_trace_events(make_spans())
        flush = next(e for e in events if e["name"] == "serving.flush")
        delivery = next(e for e in events if e["name"] == "serving.delivery")
        wall = next(e for e in events if e["name"] == "round")
        assert (flush["pid"], flush["tid"]) == (1, 0)  # coordinator lane
        assert (delivery["pid"], delivery["tid"]) == (1, 1)  # tier:fast lane
        assert wall["pid"] == 2  # wall-clock process
        assert flush["cat"] == "serving" and wall["cat"] == "wall"

    def test_unknown_lane_gets_overflow_tid(self):
        tracer = Tracer()
        tracer.add_span("serving.delivery", start=0.0, end=1.0, lane="tier:exotic")
        events = chrome_trace_events(tracer.finished)
        span = next(e for e in events if e["ph"] == "X")
        assert (span["pid"], span["tid"]) == (1, 9)

    def test_lane_stripped_from_args(self):
        events = chrome_trace_events(make_spans())
        delivery = next(e for e in events if e["name"] == "serving.delivery")
        assert "lane" not in delivery["args"]
        assert delivery["args"]["client"] == 3

    def test_metadata_names_processes_and_lanes(self):
        events = chrome_trace_events(make_spans())
        metadata = [e for e in events if e["ph"] == "M"]
        named = {(e["pid"], e["tid"], e["name"]): e["args"]["name"] for e in metadata}
        assert named[(1, 0, "process_name")] == "virtual time"
        assert named[(1, 0, "thread_name")] == "coordinator"
        assert named[(1, 1, "thread_name")] == "tier:fast"
        assert named[(2, 0, "process_name")] == "wall clock"


class TestFileRoundTrip:
    def test_write_and_reload(self, tmp_path):
        out = tmp_path / "chrome.json"
        count = write_chrome_trace(make_spans(), out)
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == count

    def test_jsonl_export_round_trip(self, tmp_path):
        # simulate a JsonlExporter trace: span lines + a metrics line
        source = tmp_path / "trace.jsonl"
        telemetry = Telemetry()
        stages = trace_delivery(
            telemetry, client_id=1, version=0, tier="slow", dispatch_time=0.0,
            compute_start=0.0, compute_end=0.4, arrival_time=0.6, end_time=1.0,
            outcome="flushed", flush_version=0,
        )
        trace_flush(telemetry, 0, 1.0, [stages])
        finished = telemetry.tracer.finished
        lines = []
        for span in finished:
            lines.append(json.dumps({
                "type": "span", "name": span.name, "start": span.start,
                "end": span.end, "attributes": span.attributes,
            }))
        lines.append(json.dumps({"type": "metrics", "metrics": {}}))
        source.write_text("\n".join(lines) + "\n")

        spans = load_spans_jsonl(source)
        assert len(spans) == len(finished)

        out = tmp_path / "chrome.json"
        count = export_chrome_trace(source, out)
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert "serving.delivery" in names and "serving.buffer" in names
        assert count == len(payload["traceEvents"])
        slow = next(
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "serving.delivery"
        )
        assert slow["tid"] == 3  # tier:slow lane

    def test_empty_source_raises(self, tmp_path):
        source = tmp_path / "empty.jsonl"
        source.write_text(json.dumps({"type": "metrics", "metrics": {}}) + "\n")
        with pytest.raises(ValueError, match="no span events"):
            export_chrome_trace(source, tmp_path / "chrome.json")
