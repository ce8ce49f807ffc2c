"""Metric instruments and the registry that owns them.

Three instrument kinds cover the FL stack's needs:

- :class:`Counter` — monotonically increasing totals
  (``transport.uplink_bytes``, ``agg.quarantined``);
- :class:`Gauge` — last-written point-in-time values
  (``federation.inflight``);
- :class:`Histogram` — distributions with count/sum/min/max and quantiles
  (``round.wall_seconds``).

Instruments are identified by (name, labels); asking the registry for the
same identity returns the same object, so call sites never need to cache
handles.  The metric-name catalogue lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

#: Frozen label set: sorted (key, value-as-string) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary of the current value."""
        return {"value": self.value}


class Gauge:
    """A point-in-time value; each ``set`` overwrites the last."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary of the current value."""
        return {"value": self.value}


class Histogram:
    """A distribution of observations with summary statistics.

    Observations are retained so quantiles stay exact; at this simulator's
    scale (thousands of rounds) that costs kilobytes, not megabytes.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observations.append(float(value))

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return float(sum(self.observations))

    @property
    def minimum(self) -> float:
        """Smallest observation; 0 when empty."""
        if not self.count:
            return 0.0
        return float(min(self.observations))

    @property
    def maximum(self) -> float:
        """Largest observation; 0 when empty."""
        if not self.count:
            return 0.0
        return float(max(self.observations))

    def percentile(self, q: float) -> float:
        """The exact q-th percentile (``q`` in [0, 100]); 0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.observations:
            return 0.0
        return float(np.percentile(self.observations, q))

    def percentiles(self, qs) -> Tuple[float, ...]:
        """The requested percentiles, in order (see :meth:`percentile`)."""
        return tuple(self.percentile(q) for q in qs)

    def quantile(self, q: float) -> float:
        """The q-quantile (``q`` in [0, 1]); 0 when empty."""
        return self.percentile(q * 100.0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary: count, sum, min/max, p50/p95 plus the raw
        observations, so an exported snapshot re-loads losslessly
        (:func:`registry_from_snapshot`).
        """
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "observations": list(self.observations),
        }


class MetricRegistry:
    """Owns every instrument; get-or-create access by (name, labels).

    Registering one name under two different instrument kinds is an error —
    it would make exporter output ambiguous.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self._kind_of: Dict[str, str] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create the counter identified by (name, labels)."""
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create the gauge identified by (name, labels)."""
        return self._get(name, "gauge", labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get or create the histogram identified by (name, labels)."""
        return self._get(name, "histogram", labels)

    def _get(self, name: str, kind: str, labels: Dict[str, Any]):
        registered = self._kind_of.get(name)
        if registered is not None and registered != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {registered}, not a {kind}"
            )
        key = (name, _freeze_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._KINDS[kind](name, key[1])
            self._instruments[key] = instrument
            self._kind_of[name] = kind
        return instrument

    def instruments(self) -> List[Any]:
        """All instruments, ordered by (name, labels) for stable output."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def names(self) -> List[str]:
        """Sorted distinct metric names currently registered."""
        return sorted(self._kind_of)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: name -> kind plus per-label-set summaries."""
        out: Dict[str, Any] = {}
        for instrument in self.instruments():
            entry = out.setdefault(
                instrument.name, {"kind": instrument.kind, "series": []}
            )
            entry["series"].append(
                {"labels": dict(instrument.labels), **instrument.snapshot()}
            )
        return out

    def reset(self) -> None:
        """Drop every instrument (mirrors :meth:`repro.comm.Transport.reset`).

        Back-to-back simulations in one process each start from an empty
        registry instead of accumulating the previous run's counts.
        """
        self._instruments = {}
        self._kind_of = {}


def registry_from_snapshot(snapshot: Dict[str, Any]) -> MetricRegistry:
    """Rebuild a registry from a :meth:`MetricRegistry.snapshot` dump.

    The inverse of ``snapshot()``: counters and gauges restore their value,
    histograms re-observe the retained raw observations, so
    ``registry_from_snapshot(r.snapshot()).snapshot() == r.snapshot()``.
    (Label values come back as strings — the identity ``snapshot`` already
    stored, so the round-trip is exact at the registry level.)
    """
    registry = MetricRegistry()
    for name, entry in snapshot.items():
        kind = entry["kind"]
        for series in entry["series"]:
            labels = series.get("labels", {})
            if kind == "counter":
                registry.counter(name, **labels).add(float(series["value"]))
            elif kind == "gauge":
                registry.gauge(name, **labels).set(float(series["value"]))
            elif kind == "histogram":
                histogram = registry.histogram(name, **labels)
                for value in series.get("observations", []):
                    histogram.observe(float(value))
            else:
                raise ValueError(f"unknown instrument kind {kind!r} for metric {name!r}")
    return registry
