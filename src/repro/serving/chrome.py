"""Chrome trace-event export for serving span trees.

Converts finished :class:`~repro.telemetry.spans.SpanRecord` objects into
the Chrome trace-event JSON format (the ``chrome://tracing`` / Perfetto
"JSON Array Format").  Each span becomes one complete event::

    {"ph": "X", "name": ..., "ts": <µs int>, "dur": <µs int>,
     "pid": 1, "tid": <lane>, "args": {...}}

Virtual-time serving spans land on ``pid`` 1 with one ``tid`` lane per
client speed tier plus a coordinator lane; any other spans (wall-clock
``round`` / ``client`` / ... sections) land on ``pid`` 2 in a single
lane.  ``ph: "M"`` metadata events name every process and thread so the
viewer shows "virtual time" / "tier:fast" instead of bare integers.

The entry points are :func:`chrome_trace_events` (spans → event list)
and :func:`export_chrome_trace` (JSONL telemetry trace file → Chrome
JSON file), which backs ``repro trace export``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from ..telemetry.spans import SpanRecord

#: Virtual-time lanes, in display order (tid doubles as sort order).
_LANES: Dict[str, int] = {
    "coordinator": 0,
    "tier:fast": 1,
    "tier:medium": 2,
    "tier:slow": 3,
}

_PID_VIRTUAL = 1
_PID_WALL = 2
_TID_WALL = 0
_TID_OTHER_LANE = 9  # virtual-time spans with an unregistered lane label

_SpanLike = Union[SpanRecord, Dict[str, Any]]


def _as_fields(span: _SpanLike, where: str = "") -> Dict[str, Any]:
    """Normalise a SpanRecord or a JSONL span event dict to plain fields;
    one that cannot become a trace event raises ValueError after ``where``."""
    source = vars(span) if isinstance(span, SpanRecord) else span
    fields = {key: source.get(key) for key in ("name", "start", "end")}
    fields["attributes"] = source.get("attributes", {})
    times = (fields["start"], fields["end"])
    if (
        fields["name"] is None
        or not all(isinstance(t, (int, float)) and math.isfinite(t) for t in times)
        or not isinstance(fields["attributes"], dict)
    ):
        raise ValueError(
            f"{where}a span needs a name, finite numeric start and end,"
            " and object attributes"
        )
    return fields


def chrome_trace_events(spans: Iterable[_SpanLike]) -> List[Dict[str, Any]]:
    """Convert spans to Chrome trace events (complete + metadata events).

    Accepts :class:`SpanRecord` objects or exporter event dicts with
    ``type == "span"`` fields.  Timestamps are scaled seconds → integer
    microseconds as the format requires.
    """
    events: List[Dict[str, Any]] = []
    used_lanes: set = set()
    wall_used = False
    for span in spans:
        fields = _as_fields(span)
        attributes = fields["attributes"]
        lane = attributes.get("lane")
        if lane is not None:
            pid = _PID_VIRTUAL
            tid = _LANES.get(str(lane), _TID_OTHER_LANE)
            used_lanes.add((str(lane), tid))
        else:
            pid, tid = _PID_WALL, _TID_WALL
            wall_used = True
        start_us = int(round(fields["start"] * 1e6))
        end_us = int(round(fields["end"] * 1e6))
        events.append(
            {
                "ph": "X",
                "name": fields["name"],
                "cat": "serving" if lane is not None else "wall",
                "ts": start_us,
                "dur": max(end_us - start_us, 0),
                "pid": pid,
                "tid": tid,
                "args": {
                    key: value
                    for key, value in attributes.items()
                    if key != "lane"
                },
            }
        )
    metadata: List[Dict[str, Any]] = []
    if used_lanes:
        metadata.append(_meta("process_name", _PID_VIRTUAL, 0, "virtual time"))
        for lane, tid in sorted(used_lanes, key=lambda item: item[1]):
            metadata.append(_meta("thread_name", _PID_VIRTUAL, tid, lane))
    if wall_used:
        metadata.append(_meta("process_name", _PID_WALL, 0, "wall clock"))
        metadata.append(_meta("thread_name", _PID_WALL, _TID_WALL, "main"))
    return metadata + events


def _meta(kind: str, pid: int, tid: int, name: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": kind,
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def write_chrome_trace(
    spans: Iterable[_SpanLike], path: Union[str, Path]
) -> int:
    """Write spans as a Chrome trace JSON file; returns the event count."""
    events = chrome_trace_events(spans)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=1)
    )
    return len(events)


def load_spans_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read the span events out of a :class:`JsonlExporter` trace file;
    a malformed line raises :class:`ValueError` naming its line number."""
    spans: List[Dict[str, Any]] = []
    with Path(path).open(encoding="utf-8") as stream:
        for number, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if not isinstance(event, dict):
                raise ValueError(f"{path}: line {number} is not a JSON object")
            if event.get("type") == "span":
                _as_fields(event, where=f"{path}: line {number}: ")
                spans.append(event)
    return spans


def export_chrome_trace(
    source: Union[str, Path], destination: Union[str, Path]
) -> int:
    """Convert a JSONL telemetry trace to a Chrome trace file.

    Backs ``repro trace export``.  Raises :class:`ValueError` when the
    source holds no spans — an empty trace almost always means the run
    was made without ``--telemetry jsonl:...``.
    """
    spans = load_spans_jsonl(source)
    if not spans:
        raise ValueError(
            f"{source}: no span events found (run with --telemetry jsonl:PATH"
            " to record spans)"
        )
    return write_chrome_trace(spans, destination)
