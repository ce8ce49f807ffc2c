"""Graded-chaos grid harness behind ``repro chaos``.

Runs the semi-async coordinator across an algorithm x loss-rate grid
under one chaos profile (duplication, per-direction latency, leases,
optionally an open-loop arrival trace), checks the two determinism
invariants the network layer promises, and reports the largest loss
rate at which each algorithm still clears the accuracy floor:

1. **Inert-plan bit-identity** — ``NetworkPlan.none()`` produces a run
   record byte-identical (modulo ``timing``) to ``network=None``.
2. **Same-seed chaos determinism** — repeating the noisiest cell with
   the same seed reproduces the record byte-for-byte (modulo
   ``timing``).

``repro chaos`` prints or writes the result.  Tier-1
(``tests/federation/test_chaos.py::TestChaosCampaign``) runs the default
campaign and asserts both invariants and a loss threshold of at least
0.3 for every algorithm on the grid.

Federation modules are imported lazily inside functions:
``repro.federation.runner`` imports this package's plan/traffic
modules at import time, so a top-level import here would be circular.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .plan import NetworkPlan

__all__ = ["ChaosSpec", "SMOKE_SPEC", "run_chaos"]


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos campaign: the grid, the chaos profile, the run shape."""

    algorithms: Tuple[str, ...] = ("fedavg", "taco", "scaffold")
    loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    trace: Optional[str] = None  # open-loop trace name, None = closed loop
    trace_bursts: int = 48
    duplicate_rate: float = 0.05
    uplink_latency: float = 0.02
    downlink_latency: float = 0.01
    retry_limit: int = 2
    retry_backoff: float = 0.1
    retry_jitter: float = 0.1
    lease_timeout: Optional[float] = 5.0
    rounds: int = 3
    population: int = 200
    cohort_size: int = 8
    buffer_size: int = 4
    local_steps: int = 2
    samples_per_client: int = 16
    batch_size: int = 8
    test_size: int = 80
    width_multiplier: float = 0.5
    seed: int = 0
    #: "Still works" bar: output accuracy a cell must clear to count as
    #: surviving its loss rate (adult majority class is ~0.76; the CI
    #: smoke shape lands well above 0.5 on a perfect wire).
    accuracy_floor: float = 0.5


#: ``repro chaos --smoke``: the CI-sized campaign (2 algorithms, 3 rates).
SMOKE_SPEC = ChaosSpec(
    algorithms=("fedavg", "taco"),
    loss_rates=(0.0, 0.2, 0.5),
    rounds=2,
    population=120,
    test_size=60,
)


def _base_config(spec: ChaosSpec, algorithm: str, loss_rate: float):
    from ..federation.runner import FederateConfig

    return FederateConfig(
        algorithm=algorithm,
        population=spec.population,
        cohort_size=spec.cohort_size,
        buffer_size=spec.buffer_size,
        rounds=spec.rounds,
        local_steps=spec.local_steps,
        samples_per_client=spec.samples_per_client,
        batch_size=spec.batch_size,
        test_size=spec.test_size,
        width_multiplier=spec.width_multiplier,
        seed=spec.seed,
        loss_rate=loss_rate,
        duplicate_rate=spec.duplicate_rate,
        uplink_latency=spec.uplink_latency,
        downlink_latency=spec.downlink_latency,
        retry_limit=spec.retry_limit,
        retry_backoff=spec.retry_backoff,
        retry_jitter=spec.retry_jitter,
        lease_timeout=spec.lease_timeout,
        trace=spec.trace,
        trace_bursts=spec.trace_bursts,
    )


def _record_text(config) -> str:
    """Canonical run-record JSON for one config, ``timing`` dropped."""
    from ..federation.runner import run_federation
    from ..runrecord import build_run_record, canonical_json

    _, result = run_federation(config)
    record = build_run_record(result, algorithm=config.algorithm, config=config)
    record.pop("timing", None)
    record.pop("platform", None)
    return canonical_json(record)


def _inert_plan_bit_identical(spec: ChaosSpec) -> bool:
    """``NetworkPlan.none()`` vs ``network=None``: byte-identical records."""
    from ..federation.runner import build_coordinator
    from ..runrecord import build_run_record, canonical_json

    config = _base_config(spec, spec.algorithms[0], 0.0).with_overrides(
        duplicate_rate=0.0,
        uplink_latency=0.0,
        downlink_latency=0.0,
        lease_timeout=None,
        trace=None,
    )
    texts = []
    for network in (None, NetworkPlan.none()):
        coordinator = build_coordinator(config, network=network)
        result = coordinator.run(config.rounds)
        record = build_run_record(result, algorithm=config.algorithm, config=config)
        record.pop("timing", None)
        record.pop("platform", None)
        texts.append(canonical_json(record))
    return texts[0] == texts[1]


def _run_cell(spec: ChaosSpec, algorithm: str, loss_rate: float) -> Dict[str, Any]:
    from ..federation.runner import run_federation

    config = _base_config(spec, algorithm, loss_rate)
    coordinator, result = run_federation(config)
    history = coordinator.history
    deliveries = history.delivery_summary()
    return {
        "algorithm": algorithm,
        "loss_rate": loss_rate,
        "final_accuracy": result.final_accuracy,
        "output_accuracy": result.output_accuracy,
        "best_accuracy": history.best_accuracy if len(history) else 0.0,
        "rounds": len(history),
        "skipped_rounds": history.skipped_rounds,
        "aggregated_updates": sum(r.aggregated for r in history.records),
        "dropped_uploads": history.total_dropped,
        "retried_uploads": sum(
            sum(r.retries.values()) for r in history.records
        ),
        "duplicated_uploads": history.total_duplicated,
        "quarantined_clients": history.total_quarantined,
        "deliveries": deliveries,
        "uplink_bytes": history.total_uplink_bytes,
        "downlink_bytes": history.total_downlink_bytes,
        "survives": bool(result.output_accuracy >= spec.accuracy_floor),
    }


def run_chaos(spec: ChaosSpec, log=None) -> Dict[str, Any]:
    """Run the full campaign; returns the ``{"chaos": ...}`` payload.

    ``log`` is an optional ``print``-like callable for progress lines.
    """
    emit = log if log is not None else (lambda message: None)

    emit("checking invariant: inert plan is bit-identical to no plan")
    none_plan_ok = _inert_plan_bit_identical(spec)

    cells: List[Dict[str, Any]] = []
    for algorithm in spec.algorithms:
        for loss_rate in spec.loss_rates:
            emit(f"cell {algorithm} @ loss={loss_rate:g}")
            cells.append(_run_cell(spec, algorithm, loss_rate))

    emit("checking invariant: same seed reproduces the noisiest cell")
    worst = _base_config(spec, spec.algorithms[0], max(spec.loss_rates))
    deterministic = _record_text(worst) == _record_text(worst)

    # Largest tested loss rate each algorithm survives (None: not even a
    # perfect wire clears the floor at this run shape).
    thresholds: Dict[str, Optional[float]] = {}
    for algorithm in spec.algorithms:
        passing = [
            c["loss_rate"]
            for c in cells
            if c["algorithm"] == algorithm and c["survives"]
        ]
        thresholds[algorithm] = max(passing) if passing else None

    return {
        "chaos": {
            "spec": dataclasses.asdict(spec),
            "invariants": {
                "none_plan_bit_identical": bool(none_plan_ok),
                "same_seed_deterministic": bool(deterministic),
            },
            "loss_thresholds": thresholds,
            "cells": cells,
        }
    }
