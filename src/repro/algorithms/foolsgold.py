"""FoolsGold (Fung et al., 2020) — aggregation-weight calibration.

No local correction; the aggregation (Algorithm 1, line 10) reweights each
client by the cosine similarity rho_i between its local gradient Delta_i^t
and the global gradient:

    Delta_{t+1} = (1 / (K N eta_l)) * sum_i rho_i Delta_i^t / sum_i rho_i

The paper's formula references the round's aggregate, which is circular to
compute exactly; following the original FoolsGold spirit we use the plain
average of the current round's local gradients as the similarity reference
(documented substitution).  Negative similarities are floored at a small
positive value so weights stay valid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState, cosine_similarity
from ..fl.timing import ComputeProfile
from ..telemetry import get_telemetry
from .base import Strategy


class FoolsGold(Strategy):
    """Cosine-similarity aggregation weights; no local correction."""

    name = "foolsgold"
    has_aggregation_correction = True

    #: Floor for rho_i so a fully-orthogonal client keeps an epsilon weight.
    MIN_WEIGHT = 1e-3

    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        reference = np.zeros_like(updates[0].delta)
        for update in updates:
            reference += update.delta / len(updates)

        weights = [
            max(cosine_similarity(update.delta, reference), self.MIN_WEIGHT)
            for update in updates
        ]
        self.last_weights = {u.client_id: w for u, w in zip(updates, weights)}
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.per_client("foolsgold.weight", self.last_weights)

        total_weight = sum(weights)
        aggregated = np.zeros_like(reference)
        for update, weight in zip(updates, weights):
            aggregated += (weight / total_weight) * update.delta
        # The (1/(K N eta_l)) * N factor: Eq. (6) with the weights already
        # normalised to sum to one.
        return aggregated / (self.local_steps * self.local_lr)

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1)  # all extra work is server-side
