"""The telemetry hub: the program's one observation global.

One facade over a tracer, a metric registry, exporters and a per-round
diagnostics window.  The FL hot paths (round engines, clients, fault
injector, strategies) call :func:`get_telemetry` and record against
whatever is installed.  By default that is :data:`NOOP` — an
implementation whose span context manager and instruments are shared
do-nothing singletons and whose round window discards everything, so the
disabled cost is one function call and a branch per site and training
numerics stay bit-identical (telemetry never touches RNG streams or model
math).

The round window is what the algorithm publishes into beyond the round's
:class:`~repro.fl.history.RoundRecord`: the round engine opens it with
:meth:`Telemetry.begin_round`, strategies add :meth:`~Telemetry.scalar` and
:meth:`~Telemetry.per_client` values (TACO's drift cosines and strikes,
Scaffold's control norms, ...), and :meth:`~Telemetry.end_round` returns
the finished :class:`AlgoDiagnostics` so the engine keeps it on the
round's record and streams both as one ``round.record`` event.  Publishes
outside an open round are dropped, so strategy methods called standalone
(the theory experiments do) stay safe.

Enable telemetry for a scope with :func:`telemetry_session`::

    from repro.telemetry import telemetry_session, JsonlExporter

    with telemetry_session([JsonlExporter("out/trace.jsonl")]):
        result = simulation.run(rounds=10)
    for diag in result.diagnostics:   # one per round, read from the history
        print(diag.round, diag.scalars.get("taco.threshold_hits"))

or install permanently with :func:`set_telemetry`.  A session with no
exporter (``repro run --introspect``) only collects.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, Iterator, Optional

from .diagnostics import AlgoDiagnostics
from .exporters import Exporter
from .metrics import Counter, Gauge, Histogram, MetricRegistry
from .spans import SpanRecord, Tracer


class Telemetry:
    """Live telemetry: a tracer, a metric registry, exporters, a round window.

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
        self._round: Optional[AlgoDiagnostics] = None

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
    # Round window (opened and closed by the round engine)
    # ------------------------------------------------------------------
    def begin_round(self, round_index: int, algorithm: str) -> None:
        """Open the diagnostics window for one communication round."""
        self._round = AlgoDiagnostics(round=round_index, algorithm=algorithm)

    def scalar(self, name: str, value: float) -> None:
        """Publish one scalar into the open round (dropped when none is open)."""
        if self._round is not None:
            self._round.merge_scalar(name, value)

    def per_client(self, name: str, values: Dict[int, float]) -> None:
        """Publish per-client values into the open round."""
        if self._round is not None:
            self._round.merge_per_client(name, values)

    def end_round(self) -> Optional[AlgoDiagnostics]:
        """Close the window and return what was published (``None`` when no
        round was open); the engine streams it nested in ``round.record``."""
        record, self._round = self._round, None
        return record

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear the tracer and the registry, and drop any open round.

        Exporter output already streamed (e.g. JSONL lines) is untouched —
        a trace file legitimately spans several runs; the in-memory state
        that terminal dumps are built from starts fresh.
        """
        self.tracer.reset()
        self.registry.reset()
        self._round = None

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
    norm, a cosine) should guard on :attr:`enabled` so the disabled path
    does no work at all.
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

    def begin_round(self, round_index: int, algorithm: str) -> None:
        """Discard the round open."""

    def scalar(self, name: str, value: float) -> None:
        """Discard the scalar."""

    def per_client(self, name: str, values: Dict[int, float]) -> None:
        """Discard the values."""

    def end_round(self) -> None:
        """Discard the round close; there is no record to return."""

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
