"""Open-loop load testing of the async coordinator (``repro loadtest``).

The harness replays one :class:`~repro.network.traffic.ArrivalTrace`
workload shape (poisson / flash / diurnal) against
:class:`~repro.federation.coordinator.AsyncCoordinator` at a sweep of
offered rates — :meth:`ArrivalTrace.scaled` compresses the trace in
time, so every point replays the *same* bursts, only faster — inside a
telemetry session, so every delivery is traced.  Each point yields:

- **throughput**: flushed deliveries per virtual second;
- **latency**: p50/p90/p99/max end-to-end delivery latency plus a
  per-stage breakdown (queue wait, compute, network, buffer residency),
  all read from the ``serving.*`` telemetry histograms via
  :meth:`~repro.telemetry.metrics.Histogram.percentile`.

:func:`detect_knee` finds the *saturation knee* — the first swept point
where throughput falls below ``knee_fraction`` of the offered rate.  The
knee is physical: the coordinator's virtual clock cannot run faster than
the clients' compute-time spread, so as the offered rate grows the
throughput flattens at ``arrivals / compute-spread`` while buffer
residency (and e2e latency) climbs.

The payload (``{"serving": {"sweep": [...], "knee": {...}}}``) is what
``repro loadtest --out`` writes and ``repro report`` renders.  Every
number in it is CostModel virtual time, not a measurement.  Tier-1
(``tests/serving/test_loadtest.py``) asserts the ``--smoke`` sweep's
capacity floors: at least four points, positive throughput, ordered
latency percentiles and a saturated knee.

Everything here is deterministic: virtual-time simulation, seeded
traces, exact-mode histograms — two runs of one config produce equal
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..federation.runner import SMOKE_CONFIG, FederateConfig, build_coordinator
from ..federation.tracing import SERVING_STAGES
from ..network.traffic import make_trace, trace_names
from ..telemetry import get_telemetry, telemetry_session

#: Offered-rate multipliers swept by default (1.0 = the trace as built).
DEFAULT_RATE_FACTORS: Tuple[float, ...] = (0.25, 1.0, 4.0, 16.0)

#: Throughput below this fraction of the offered rate marks saturation.
DEFAULT_KNEE_FRACTION = 0.8


@dataclass(frozen=True)
class LoadTestConfig:
    """One open-loop load test: a workload shape and a rate sweep."""

    trace: str = "poisson"
    rate_factors: Tuple[float, ...] = DEFAULT_RATE_FACTORS
    bursts: int = 48
    seed: int = 0
    knee_fraction: float = DEFAULT_KNEE_FRACTION
    base: FederateConfig = field(default_factory=lambda: SMOKE_CONFIG)

    def __post_init__(self) -> None:
        if self.trace not in trace_names():
            raise ValueError(
                f"unknown trace {self.trace!r}; registered traces: "
                f"{', '.join(trace_names())}"
            )
        factors = tuple(float(f) for f in self.rate_factors)
        if not factors:
            raise ValueError("rate_factors must name at least one offered rate")
        if any(f <= 0 for f in factors):
            raise ValueError(f"rate_factors must be positive, got {factors}")
        if list(factors) != sorted(factors):
            raise ValueError("rate_factors must be ascending (a rate sweep)")
        if not 0.0 < self.knee_fraction <= 1.0:
            raise ValueError(
                f"knee_fraction must be in (0, 1], got {self.knee_fraction}"
            )
        object.__setattr__(self, "rate_factors", factors)


def _percentile_block(histogram) -> Dict[str, float]:
    """p50/p90/p99/max of one telemetry histogram (zeros when empty)."""
    if not histogram.count:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    p50, p90, p99 = histogram.percentiles((50.0, 90.0, 99.0))
    return {
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "max": float(histogram.maximum),
    }


def run_loadtest_point(
    config: LoadTestConfig, rate_factor: float
) -> Dict[str, Any]:
    """Run the workload at one offered rate; returns the capacity point.

    The trace is time-compressed by ``rate_factor`` and replayed inside a
    private telemetry session, which traces every delivery (exact-mode
    histograms feed the percentiles).  The round budget is derived from
    the trace itself — ``total_arrivals // buffer_size`` minus a margin —
    so the whole measured run is open-loop; the closed-loop fallback
    after trace exhaustion never pollutes the numbers.
    """
    base = config.base
    trace = make_trace(
        config.trace, seed=config.seed, bursts=config.bursts
    ).scaled(1.0 / rate_factor)
    buffer_size = base.buffer_size or base.cohort_size
    rounds = max(1, trace.total_arrivals // buffer_size - 1)
    coordinator = build_coordinator(
        base.with_overrides(seed=config.seed, rounds=rounds), arrival_trace=trace
    )
    with telemetry_session([]):
        coordinator.run(rounds)
        telemetry = get_telemetry()
        latency = telemetry.histogram("serving.e2e_seconds")
        flushed = latency.count  # one observation per flushed delivery
        e2e = _percentile_block(latency)
        stages = {}
        for stage in SERVING_STAGES:
            histogram = telemetry.histogram("serving.stage_seconds", stage=stage)
            block = _percentile_block(histogram)
            block["mean"] = (
                histogram.total / histogram.count if histogram.count else 0.0
            )
            del block["p90"], block["max"]
            stages[stage] = block
    virtual_time = coordinator.virtual_time
    return {
        "rate_factor": rate_factor,
        "offered_rate": trace.offered_rate,
        "arrivals": trace.total_arrivals,
        "rounds": rounds,
        "flushed": flushed,
        "virtual_time": virtual_time,
        "throughput": flushed / virtual_time if virtual_time > 0 else 0.0,
        "latency": e2e,
        "stages": stages,
    }


def detect_knee(
    points: Sequence[Dict[str, Any]],
    knee_fraction: float = DEFAULT_KNEE_FRACTION,
) -> Dict[str, Any]:
    """The saturation knee of a capacity sweep.

    The knee is the first point whose throughput drops below
    ``knee_fraction`` of its offered rate.  When no point saturates the
    last point is reported with ``saturated: False`` — the sweep did not
    push the coordinator hard enough.
    """
    if not points:
        raise ValueError("cannot detect a knee in an empty sweep")
    for point in points:
        if point["throughput"] < knee_fraction * point["offered_rate"]:
            return {
                "saturated": True,
                "rate_factor": point["rate_factor"],
                "offered_rate": point["offered_rate"],
                "throughput": point["throughput"],
                "p50": point["latency"]["p50"],
                "p99": point["latency"]["p99"],
            }
    last = points[-1]
    return {
        "saturated": False,
        "rate_factor": last["rate_factor"],
        "offered_rate": last["offered_rate"],
        "throughput": last["throughput"],
        "p50": last["latency"]["p50"],
        "p99": last["latency"]["p99"],
    }


def run_loadtest(config: Optional[LoadTestConfig] = None) -> Dict[str, Any]:
    """Sweep the configured offered rates; returns the serving payload.

    The result's single top-level ``serving`` key is what ``repro report``
    detects (:func:`repro.report.is_serving_payload`) and renders as the
    capacity chapter.
    """
    config = config or LoadTestConfig()
    sweep: List[Dict[str, Any]] = [
        run_loadtest_point(config, factor) for factor in config.rate_factors
    ]
    return {
        "serving": {
            "trace": config.trace,
            "bursts": config.bursts,
            "seed": config.seed,
            "knee_fraction": config.knee_fraction,
            "sweep": sweep,
            "knee": detect_knee(sweep, config.knee_fraction),
        }
    }
