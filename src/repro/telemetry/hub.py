"""The telemetry hub: one facade over tracer + registry + exporters.

The FL hot paths (simulation, client, transport, fault injector,
strategies) call :func:`get_telemetry` and record against whatever is
installed.  By default that is :data:`NOOP` — an implementation whose span
context manager and instruments are shared do-nothing singletons, so the
disabled cost is one function call and a branch per site and training
numerics stay bit-identical (telemetry never touches RNG streams or model
math).

Enable telemetry for a scope with :func:`telemetry_session`::

    from repro.telemetry import telemetry_session, JsonlExporter

    with telemetry_session([JsonlExporter("out/trace.jsonl")]) as telemetry:
        simulation.run(rounds=10)

or install permanently with :func:`set_telemetry`.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, Iterator, Optional

from .exporters import Exporter
from .metrics import Counter, Gauge, Histogram, MetricRegistry
from .spans import SpanRecord, Tracer


class Telemetry:
    """Live telemetry: a tracer, a metric registry, and exporters.

    Parameters
    ----------
    clock:
        Injectable clock shared by the tracer (fake in tests).
    exporters:
        Exporters receiving streamed events; the registry snapshot reaches
        them at :meth:`flush`.
    """

    enabled = True

    def __init__(self, clock=None, exporters: Iterable[Exporter] = ()) -> None:
        self.registry = MetricRegistry()
        self.tracer = Tracer(clock=clock, on_finish=self._span_finished)
        self.exporters = list(exporters)

    # ------------------------------------------------------------------
    # Recording API (mirrored by NoopTelemetry)
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Context manager timing one named, nestable section."""
        return self.tracer.span(name, **attributes)

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter identified by (name, labels)."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge identified by (name, labels)."""
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram identified by (name, labels)."""
        return self.registry.histogram(name, **labels)

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point event (no duration) straight to the exporters."""
        self._emit({"type": "event", "name": name, "fields": fields})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear the tracer and registry (see satellite on stale state).

        Exporter output already streamed (e.g. JSONL lines) is untouched —
        a trace file legitimately spans several runs; the in-memory state
        that terminal dumps are built from starts fresh.
        """
        self.tracer.reset()
        self.registry.reset()

    def flush(self) -> None:
        """Push the registry snapshot to every exporter."""
        for exporter in self.exporters:
            exporter.flush(self.registry)

    def close(self) -> None:
        """Flush, then release exporter resources."""
        self.flush()
        for exporter in self.exporters:
            exporter.close()

    # ------------------------------------------------------------------
    def _span_finished(self, record: SpanRecord) -> None:
        self._emit(record.to_event())

    def _emit(self, event: Dict[str, Any]) -> None:
        for exporter in self.exporters:
            exporter.export(event)


class _NoopSpan:
    """Shared do-nothing span handle."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NoopInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def observe(self, value: float) -> None:
        """Discard the observation."""


_NOOP_SPAN = _NoopSpan()
_NOOP_INSTRUMENT = _NoopInstrument()


class NoopTelemetry:
    """Disabled telemetry: every call returns a shared inert object.

    Hot paths that would *compute* something purely for telemetry (a vector
    norm, a sum) should guard on :attr:`enabled` so the disabled path does
    no work at all.
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NoopSpan:
        """A shared no-op context manager."""
        return _NOOP_SPAN

    def counter(self, name: str, **labels: Any) -> _NoopInstrument:
        """A shared no-op instrument."""
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NoopInstrument:
        """A shared no-op instrument."""
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NoopInstrument:
        """A shared no-op instrument."""
        return _NOOP_INSTRUMENT

    def event(self, name: str, **fields: Any) -> None:
        """Discard the event."""

    def reset(self) -> None:
        """Nothing to clear."""

    def flush(self) -> None:
        """Nothing to flush."""

    def close(self) -> None:
        """Nothing to close."""


#: The process-wide disabled default.
NOOP = NoopTelemetry()

_active = NOOP


def get_telemetry():
    """The currently installed telemetry (the no-op default when disabled)."""
    return _active


def set_telemetry(telemetry) -> Any:
    """Install ``telemetry`` globally; returns the previous instance."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else NOOP
    return previous


@contextlib.contextmanager
def telemetry_session(
    exporters: Iterable[Exporter] = (),
    clock=None,
    telemetry: Optional[Telemetry] = None,
) -> Iterator[Telemetry]:
    """Install a live :class:`Telemetry` for a scope, closing it on exit.

    The previous global instance (usually :data:`NOOP`) is restored even on
    error, and exporters are flushed + closed exactly once.
    """
    session = telemetry if telemetry is not None else Telemetry(clock=clock, exporters=exporters)
    previous = set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)
        session.close()
