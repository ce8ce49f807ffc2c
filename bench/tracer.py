"""A self-contained nesting span tracer with online per-layer self time.

The benchmark times each layer from the outside: :meth:`Tracer.wrap`
turns a public function into one that opens a span around every call.
Spans nest on a stack, and a span's *self time* is its duration minus the
time its child spans cover, so the per-layer totals add up to the traced
wall time without double counting — including recursive layers such as
``Module.__call__`` calling its sub-modules.

Totals are kept online (two list slots per layer), which keeps the cost
per call at two clock reads and a few list operations; that matters for
layers called ~10^5 times per run.  Individual spans are stored only when
asked for (``keep_spans=True``), compactly in typed arrays, and written
as ``{"type": "span", ...}`` JSONL when the run ends — the format
``repro trace export`` converts for Perfetto.

This module deliberately does not use :mod:`repro.telemetry`: the
benchmark must keep measuring the same boundaries when the program's own
observability code is rewritten.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple


class Tracer:
    """Record nested spans; keep per-layer exclusive time and call counts.

    ``clock`` returns seconds (a fake clock in tests).  ``run_id`` is the
    identifier shared by every span of one run.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_spans: bool = False,
        run_id: str = "run",
    ) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._self_time: List[float] = []
        self._calls: List[int] = []
        # One frame per open span: [name id, start, child time, span index].
        self._stack: List[list] = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")

    def layer(self, name: str) -> int:
        """The id of a layer name (registered on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_time.append(0.0)
            self._calls.append(0)
        return nid

    def enter(self, nid: int) -> None:
        """Open a span of layer ``nid`` as a child of the innermost open span."""
        index = -1
        start = self.clock()
        if self.keep_spans:
            index = len(self._span_name)
            self._span_name.append(nid)
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_start.append(start)
            self._span_end.append(start)
        self._stack.append([nid, start, 0.0, index])

    def exit(self) -> None:
        """Close the innermost open span and charge its self time."""
        end = self.clock()
        nid, start, child, index = self._stack.pop()
        duration = end - start
        self._self_time[nid] += duration - child
        self._calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self._span_end[index] = end

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of layer ``name``."""
        nid = self.layer(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Layer name -> (self seconds, calls)."""
        return {
            name: (self._self_time[nid], self._calls[nid])
            for nid, name in enumerate(self.names)
        }

    def write_jsonl(self, path: str | Path) -> int:
        """Write the stored spans as JSONL span events; returns the count."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as stream:
            for index in range(len(self._span_name)):
                stream.write(
                    json.dumps(
                        {
                            "type": "span",
                            "name": self.names[self._span_name[index]],
                            "start": self._span_start[index],
                            "end": self._span_end[index],
                            "attributes": {
                                "run": self.run_id,
                                "id": index,
                                "parent": self._span_parent[index],
                            },
                        }
                    )
                    + "\n"
                )
        return len(self._span_name)
