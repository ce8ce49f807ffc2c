"""Applying a :class:`~repro.faults.plan.FaultPlan` to the round pipeline.

The injector has two hook points, mirroring where real FL failures occur:

1. :meth:`FaultInjector.filter_crashes` — before local training.  A dropped
   client crashes without doing any local work, so its private RNG streams
   never advance: an injected drop is indistinguishable from the client not
   having been selected (the property the partial-participation equivalence
   tests assert).
2. :meth:`FaultInjector.process_updates` — after local training, before the
   transport/aggregation path.  Corrupts payloads, inflates straggler
   compute time, and simulates transient upload errors under the server's
   retry/backoff policy (an upload failing more than ``retry_limit`` times
   is lost).

What the injector did lands in a :class:`RoundFaultLog`, and from there on
the round's :class:`~repro.fl.history.RoundRecord`; the ``agg.*`` counters
are published from that record.  Only what no record field holds (a
straggler slowdown, a corruption mode) is counted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..fl.state import ClientUpdate
from ..telemetry import get_telemetry
from .plan import FaultPlan


@dataclass
class RoundFaultLog:
    """Everything the injector did to one round."""

    crashed: List[int] = field(default_factory=list)
    lost_after_retries: List[int] = field(default_factory=list)
    corrupted: Dict[int, str] = field(default_factory=dict)  # client -> mode
    straggled: Dict[int, float] = field(default_factory=dict)  # client -> factor
    retries: Dict[int, int] = field(default_factory=dict)  # client -> retries

    @property
    def dropped(self) -> List[int]:
        """All clients whose upload never reached aggregation."""
        return sorted(self.crashed + self.lost_after_retries)


def corrupt_delta(delta: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Return a corrupted copy of ``delta`` under the given mode."""
    if mode == "nan":
        out = delta.copy()
        count = max(1, out.size // 100)
        out[rng.choice(out.size, size=count, replace=False)] = np.nan
        return out
    if mode == "nan-stealth":
        # One poisoned coordinate in an otherwise-honest payload: the norm
        # becomes NaN, so every norm-threshold comparison is False and the
        # upload sails through magnitude gates; only an isfinite check (the
        # quarantine's, or the guard monitor's) can see it.
        out = delta.copy()
        out[int(rng.integers(out.size))] = np.nan
        return out
    if mode == "inf":
        out = delta.copy()
        out[int(rng.integers(out.size))] = np.inf
        return out
    if mode == "shape":
        # A truncated payload, as produced by an interrupted upload.
        return delta[: max(1, delta.size - 1)].copy()
    if mode == "scale":
        # A unit-scale bug (e.g. an unnormalised accumulator): finite but
        # orders of magnitude too large.
        return delta * 1e3
    raise ValueError(f"unknown corruption mode {mode!r}")


class FaultInjector:
    """Applies a :class:`FaultPlan` to one simulation's rounds."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def filter_crashes(
        self, round_index: int, client_ids: Sequence[int], log: RoundFaultLog
    ) -> List[int]:
        """Remove clients that crash before doing any local work."""
        survivors: List[int] = []
        for cid in client_ids:
            if self.plan.decide(round_index, cid).drop:
                log.crashed.append(cid)
            else:
                survivors.append(cid)
        return survivors

    def process_updates(
        self, round_index: int, updates: Sequence[ClientUpdate], log: RoundFaultLog
    ) -> List[ClientUpdate]:
        """Corrupt/delay/lose uploads; returns the updates that survive."""
        telemetry = get_telemetry()
        delivered: List[ClientUpdate] = []
        for update in updates:
            decision = self.plan.decide(round_index, update.client_id)

            if decision.straggler_factor > 1.0:
                update.sim_time *= decision.straggler_factor
                log.straggled[update.client_id] = decision.straggler_factor
                telemetry.counter("faults.straggled").add(1)

            if decision.corruption is not None:
                rng = np.random.default_rng(
                    [self.plan.seed, round_index, update.client_id, 1]
                )
                update.delta = corrupt_delta(update.delta, decision.corruption, rng)
                log.corrupted[update.client_id] = decision.corruption
                telemetry.counter("faults.corrupted", mode=decision.corruption).add(1)

            if decision.transient_failures > 0:
                policy = self.plan.retry_policy
                # Exponential backoff charged to the client's round time —
                # the same RetryPolicy the network transport layer uses.
                update.sim_time += policy.total_backoff(
                    min(decision.transient_failures, policy.max_attempts)
                )
                # The send attempts after the first, lost upload or not.
                retries = min(decision.transient_failures, self.plan.retry_limit)
                if retries:
                    log.retries[update.client_id] = retries
                if decision.transient_failures > self.plan.retry_limit:
                    log.lost_after_retries.append(update.client_id)
                    continue

            delivered.append(update)
        return delivered
