"""Open-loop client-arrival traces (ROADMAP item 3).

The coordinator's default dispatch is *closed-loop*: it tops the in-flight
pool back up to the cohort target after every flush.  A real federation
service faces *open-loop* traffic — clients show up when they show up,
regardless of server state.  An :class:`ArrivalTrace` is a seeded,
pre-materialised sequence of ``(time, count)`` bursts the coordinator
replays: at each burst time it dispatches ``count`` fresh clients, however
full its pipeline already is.  Traces are plain tuples, so they serialise
into checkpoints and replay deterministically.

Builders cover the three workload shapes the chaos and load-test
harnesses replay: :func:`poisson_trace` (memoryless bursts),
:func:`flash_crowd_trace` (a steady trickle interrupted by a
synchronized spike) and :func:`diurnal_trace` (a sinusoidal day/night
wave).  :meth:`ArrivalTrace.scaled` compresses or stretches a trace in
time — the knob the ``repro loadtest`` rate sweep turns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class ArrivalTrace:
    """A replayable open-loop workload: time-ordered dispatch bursts."""

    name: str
    events: Tuple[Tuple[float, int], ...]  # (virtual seconds, client count)

    def __post_init__(self) -> None:
        events = tuple((float(t), int(n)) for t, n in self.events)
        times = [t for t, _ in events]
        if times != sorted(times):
            raise ValueError("trace events must be time-ordered")
        if any(n < 1 for _, n in events):
            raise ValueError("every burst must dispatch at least one client")
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def total_arrivals(self) -> int:
        return sum(n for _, n in self.events)

    @property
    def horizon(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    @property
    def offered_rate(self) -> float:
        """Mean offered load in arrivals per virtual second (0 when empty)."""
        if not self.events or self.horizon <= 0:
            return 0.0
        return self.total_arrivals / self.horizon

    def scaled(self, time_factor: float) -> "ArrivalTrace":
        """The same bursts with every time multiplied by ``time_factor``.

        ``time_factor < 1`` compresses the trace (higher offered rate),
        ``> 1`` stretches it — burst sizes and order are untouched, so a
        swept load test replays the *same* workload shape at every rate.
        """
        if time_factor <= 0:
            raise ValueError(f"time_factor must be positive, got {time_factor}")
        return ArrivalTrace(
            name=self.name,
            events=tuple((t * time_factor, n) for t, n in self.events),
        )


def poisson_trace(
    seed: int = 0,
    bursts: int = 64,
    mean_gap: float = 0.005,
    mean_size: float = 4.0,
) -> ArrivalTrace:
    """Memoryless arrivals: exponential gaps, Poisson burst sizes (>= 1)."""
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    if mean_gap <= 0 or mean_size <= 0:
        raise ValueError("mean_gap and mean_size must be positive")
    rng = np.random.default_rng([seed, 0xA221])
    gaps = rng.exponential(mean_gap, size=bursts)
    sizes = 1 + rng.poisson(max(mean_size - 1.0, 0.0), size=bursts)
    times = np.cumsum(gaps)
    return ArrivalTrace(
        name="poisson",
        events=tuple((float(t), int(n)) for t, n in zip(times, sizes)),
    )


def flash_crowd_trace(
    seed: int = 0,
    bursts: int = 64,
    mean_gap: float = 0.005,
    base_size: int = 2,
    peak_size: int = 16,
    peak_start: float = 0.4,
    peak_width: float = 0.2,
) -> ArrivalTrace:
    """A steady trickle with a synchronized spike in the middle.

    Bursts in the ``[peak_start, peak_start + peak_width)`` fraction of
    the trace dispatch ``peak_size`` clients instead of ``base_size`` —
    the flash crowd the buffered coordinator must absorb without losing
    determinism.
    """
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    if mean_gap <= 0:
        raise ValueError("mean_gap must be positive")
    if base_size < 1 or peak_size < 1:
        raise ValueError("burst sizes must be >= 1")
    if not 0.0 <= peak_start <= 1.0 or not 0.0 <= peak_width <= 1.0:
        raise ValueError("peak_start and peak_width must be fractions in [0, 1]")
    rng = np.random.default_rng([seed, 0xF1A5])
    times = np.cumsum(rng.exponential(mean_gap, size=bursts))
    lo, hi = int(peak_start * bursts), int((peak_start + peak_width) * bursts)
    sizes = [
        peak_size if lo <= index < hi else base_size for index in range(bursts)
    ]
    return ArrivalTrace(
        name="flash",
        events=tuple((float(t), int(n)) for t, n in zip(times, sizes)),
    )


def diurnal_trace(
    seed: int = 0,
    bursts: int = 96,
    mean_gap: float = 0.005,
    base_size: int = 2,
    peak_size: int = 10,
    cycles: float = 2.0,
) -> ArrivalTrace:
    """A day/night wave: burst sizes follow a raised sinusoid.

    Burst ``i`` dispatches ``base_size`` clients at the trough and
    ``peak_size`` at the crest of a ``cycles``-period cosine over the
    trace — the diurnal load pattern a planet-scale federation service
    sees.  Gaps are exponential like :func:`poisson_trace`.
    """
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    if mean_gap <= 0:
        raise ValueError("mean_gap must be positive")
    if base_size < 1 or peak_size < base_size:
        raise ValueError("need 1 <= base_size <= peak_size")
    if cycles <= 0:
        raise ValueError(f"cycles must be positive, got {cycles}")
    rng = np.random.default_rng([seed, 0xD1E7])
    times = np.cumsum(rng.exponential(mean_gap, size=bursts))
    sizes = [
        base_size
        + int(
            round(
                (peak_size - base_size)
                * 0.5
                * (1.0 - math.cos(2.0 * math.pi * cycles * index / bursts))
            )
        )
        for index in range(bursts)
    ]
    return ArrivalTrace(
        name="diurnal",
        events=tuple((float(t), int(n)) for t, n in zip(times, sizes)),
    )


#: Named trace builders for configs/CLI (``--trace poisson`` etc.).
TRACES: Dict[str, Callable[..., ArrivalTrace]] = {
    "poisson": poisson_trace,
    "flash": flash_crowd_trace,
    "diurnal": diurnal_trace,
}


def trace_names() -> Tuple[str, ...]:
    """Sorted names of the registered arrival-trace generators."""
    return tuple(sorted(TRACES))


def make_trace(name: str, **kwargs) -> ArrivalTrace:
    """Build a named trace; unknown names list the registry."""
    try:
        builder = TRACES[name]
    except KeyError:
        raise ValueError(
            f"unknown trace {name!r}; registered traces: {', '.join(trace_names())}"
        ) from None
    return builder(**kwargs)
