"""Causal delivery spans for the async coordinator.

Every dispatched client upload is one *delivery* travelling through the
serving pipeline in virtual time::

    dispatch --queue_wait--> local compute --network--> buffer --flush

While telemetry is enabled, :class:`~repro.federation.coordinator.AsyncCoordinator`
writes each delivery's span tree to the one telemetry tracer at the
delivery's terminal event (through the explicit
:meth:`~repro.telemetry.spans.Tracer.add_span` API — delivery spans close
in causal virtual-time order, not wall-clock LIFO order):

- ``serving.delivery`` — the root span, dispatch to terminal event, with
  the client id, speed tier, dispatch/flush versions and outcome;
- ``serving.queue_wait`` — downlink delay before local work starts
  (zero on the perfect wire);
- ``serving.compute`` — the client's K local steps (``sim_time``);
- ``serving.network`` — uplink transit including retry backoff and
  partition holds (zero on the perfect wire);
- ``serving.buffer`` — residency in the FedBuff buffer until the flush
  (flushed deliveries only).

Each flush adds a ``serving.flush`` span on the coordinator lane carrying
the flush's latency summary: the p50/p90/p99/max end-to-end latency and
the mean of each stage over the deliveries it aggregated.  Every span
carries a ``lane`` attribute (``tier:fast`` / ``tier:medium`` /
``tier:slow`` for deliveries, ``coordinator`` for flushes) — the thread
lanes of the Chrome trace export (:mod:`repro.serving.chrome`).

Alongside the spans, the ``serving.stage_seconds{stage=...}`` and
``serving.e2e_seconds`` histograms and the ``serving.deliveries{outcome=...}``
counter feed the load-test latency percentiles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: The per-delivery pipeline stages, in causal order.
SERVING_STAGES: Tuple[str, ...] = ("queue_wait", "compute", "network", "buffer")

#: Outcome label of a delivery that reached aggregation.
OUTCOME_FLUSHED = "flushed"


def trace_delivery(
    telemetry,
    *,
    client_id: int,
    version: int,
    tier: str,
    dispatch_time: float,
    compute_start: float,
    compute_end: float,
    arrival_time: Optional[float],
    end_time: float,
    outcome: str,
    attempts: int = 1,
    held_by_partition: bool = False,
    flush_version: Optional[int] = None,
) -> Dict[str, float]:
    """Write one delivery's span tree at its terminal event.

    ``arrival_time`` is ``None`` for an upload that never arrives;
    ``outcome`` is ``"flushed"`` for an aggregated delivery or a failure
    label (``lost`` / ``late`` / ``stale`` / ``abandoned`` /
    ``quarantined``).  Stage boundaries are clamped into
    ``[dispatch_time, end_time]``.  Returns the per-stage durations.
    """
    end_time = max(end_time, dispatch_time)
    compute_end = min(compute_end, end_time)
    compute_start = min(compute_start, compute_end)
    network_end = min(arrival_time, end_time) if arrival_time is not None else end_time
    network_end = max(network_end, compute_end)
    stages = {
        "queue_wait": compute_start - dispatch_time,
        "compute": compute_end - compute_start,
        "network": network_end - compute_end,
        "buffer": end_time - network_end,
    }
    lane = f"tier:{tier}"
    attributes = {
        "client": client_id,
        "version": version,
        "tier": tier,
        "lane": lane,
        "outcome": outcome,
        "attempts": attempts,
    }
    if held_by_partition:
        attributes["held_by_partition"] = True
    if flush_version is not None:
        attributes["flush_version"] = flush_version
    tracer = telemetry.tracer
    root = tracer.add_span(
        "serving.delivery", start=dispatch_time, end=end_time, **attributes
    )
    cursor = dispatch_time
    for stage in SERVING_STAGES:
        if stage == "buffer" and (arrival_time is None or outcome != OUTCOME_FLUSHED):
            break  # never buffered: no residency span
        duration = stages[stage]
        tracer.add_span(
            f"serving.{stage}",
            start=cursor,
            end=cursor + duration,
            parent_id=root.span_id,
            depth=1,
            lane=lane,
            client=client_id,
        )
        cursor += duration

    telemetry.counter("serving.deliveries", outcome=outcome).add(1)
    if outcome == OUTCOME_FLUSHED:
        for stage in SERVING_STAGES:
            telemetry.histogram("serving.stage_seconds", stage=stage).observe(stages[stage])
        telemetry.histogram("serving.e2e_seconds").observe(end_time - dispatch_time)
    return stages


def trace_flush(
    telemetry,
    version: int,
    flush_time: float,
    flushed: List[Dict[str, float]],
    skipped: bool = False,
) -> None:
    """Write the coordinator-lane ``serving.flush`` span with its latency summary.

    ``flushed`` holds the stage durations of every traced delivery the
    flush aggregated; failure outcomes stay out of the percentiles.
    """
    e2e = [sum(stages.values()) for stages in flushed]
    summary: Dict[str, float] = {
        "e2e_p50": float(np.percentile(e2e, 50)) if e2e else 0.0,
        "e2e_p90": float(np.percentile(e2e, 90)) if e2e else 0.0,
        "e2e_p99": float(np.percentile(e2e, 99)) if e2e else 0.0,
        "e2e_max": float(max(e2e)) if e2e else 0.0,
    }
    for stage in SERVING_STAGES:
        total = 0.0
        for stages in flushed:
            total += stages[stage]
        summary[f"{stage}_mean"] = total / len(flushed) if flushed else 0.0
    telemetry.tracer.add_span(
        "serving.flush",
        start=flush_time,
        end=flush_time,
        lane="coordinator",
        version=version,
        updates=len(flushed),
        skipped=skipped,
        **summary,
    )
