"""Server-side graceful degradation.

Real FL servers treat client failure as the common case: uploads go
missing, arrive late, or arrive mangled.  This module holds the server's
defensive policy — how many extra clients to select, how long to wait,
which uploads to quarantine, and how few survivors still constitute a
round — applied by :class:`~repro.fl.simulation.FederatedSimulation`
between collection and aggregation.

Aggregation itself needs no special renormalisation path: every strategy
normalises by the updates it actually receives (count, sample mass, or
alpha mass), so a round that delivers fewer clients than were selected
still averages correctly.  What the gate must guarantee is that nothing
non-finite or mis-shaped ever reaches a strategy, because one NaN entry
poisons w_{t+1} for every client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .state import ClientUpdate

#: Quarantine reasons recorded in RoundRecord.quarantined.
REASON_NON_FINITE = "non-finite"
REASON_BAD_SHAPE = "bad-shape"
REASON_NORM_OUTLIER = "norm-outlier"
REASON_STALE = "stale"
#: Network delivery semantics (repro.network via the async coordinator):
#: a dispatch whose lease expired before its upload arrived ...
REASON_LOST = "delivery-lost"
#: ... and an upload that did arrive, but only after its lease was revoked.
REASON_LATE = "late-delivery"


@dataclass(frozen=True)
class DegradationPolicy:
    """How the server degrades when a round loses clients.

    Parameters
    ----------
    over_selection:
        Fraction of extra clients selected beyond the participation
        scheme's choice, so a round keeps a quorum after drops (0.3 on a
        10-client selection adds 3 spares).
    round_deadline:
        Simulated-seconds deadline per round; updates whose compute (plus
        injected delay) exceeds it are discarded as stragglers and the
        round is charged the deadline instead of the straggler's time.
    min_quorum:
        Minimum surviving updates for the round's global step; below it
        the server skips the step (w_{t+1} = w_t) rather than trusting a
        tiny, high-variance aggregate.
    quarantine_nonfinite:
        Reject uploads containing NaN/Inf or of the wrong dimension.
    norm_outlier_factor:
        Reject uploads whose norm exceeds this multiple of the round's
        median upload norm (None disables).  Catches finite-but-wrong
        payloads such as unit-scale bugs; generous enough (default 25x)
        that honest heterogeneity never trips it.
    max_staleness:
        Semi-async only (ignored by the synchronous round loop): drop
        buffered arrivals whose update was computed against a model more
        than this many server versions old (None accepts any staleness,
        subject to the coordinator's staleness discount).
    """

    over_selection: float = 0.0
    round_deadline: Optional[float] = None
    min_quorum: int = 1
    quarantine_nonfinite: bool = True
    norm_outlier_factor: Optional[float] = 25.0
    max_staleness: Optional[int] = None

    def __post_init__(self) -> None:
        if self.over_selection < 0:
            raise ValueError(f"over_selection must be >= 0, got {self.over_selection}")
        if self.round_deadline is not None and self.round_deadline <= 0:
            raise ValueError(f"round deadline must be positive, got {self.round_deadline}")
        if self.min_quorum < 1:
            raise ValueError(f"min_quorum must be >= 1, got {self.min_quorum}")
        if self.norm_outlier_factor is not None and self.norm_outlier_factor <= 1:
            raise ValueError("norm_outlier_factor must exceed 1 (or be None)")
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {self.max_staleness}")

    def extra_selections(self, base_count: int) -> int:
        """How many spare clients to add to a base selection."""
        if self.over_selection <= 0:
            return 0
        return int(np.ceil(self.over_selection * base_count))


def validate_updates(
    updates: Sequence[ClientUpdate],
    expected_dim: int,
    policy: DegradationPolicy,
) -> Tuple[List[ClientUpdate], Dict[int, str]]:
    """Split updates into (accepted, quarantined {client: reason}).

    Shape and finiteness are checked per update; the norm-outlier gate is
    relative to the round's median accepted norm, so it only fires when at
    least three structurally valid updates give the median meaning.
    """
    accepted: List[ClientUpdate] = []
    quarantined: Dict[int, str] = {}

    for update in updates:
        if policy.quarantine_nonfinite:
            if update.delta.shape != (expected_dim,):
                quarantined[update.client_id] = REASON_BAD_SHAPE
                continue
            if not np.isfinite(update.delta).all():
                quarantined[update.client_id] = REASON_NON_FINITE
                continue
        accepted.append(update)

    if policy.norm_outlier_factor is not None and len(accepted) >= 3:
        norms = {u.client_id: u.delta_norm for u in accepted}
        median = float(np.median(list(norms.values())))
        if median > 0.0:
            cutoff = policy.norm_outlier_factor * median
            survivors = []
            for update in accepted:
                if norms[update.client_id] > cutoff:
                    quarantined[update.client_id] = REASON_NORM_OUTLIER
                else:
                    survivors.append(update)
            accepted = survivors
    return accepted, quarantined


def split_stragglers(
    updates: Sequence[ClientUpdate], deadline: Optional[float]
) -> Tuple[List[ClientUpdate], List[int]]:
    """Discard updates whose simulated compute time missed the deadline."""
    if deadline is None:
        return list(updates), []
    on_time = [u for u in updates if u.sim_time <= deadline]
    late = sorted(u.client_id for u in updates if u.sim_time > deadline)
    return on_time, late
