"""Live Theorem-1 / Corollary-2 proxies computed on the server each round.

The exact over-correction term Y_t (Theorem 1) and the Corollary-2
optimality gap both need the *true* global gradient, which a server never
has during training.  The live proxy substitutes the round's mean client
update Delta-bar for grad f — the same reference TACO's own Eq. (7)
direction term uses — so the Assumption-2 descriptors (mu_i, c_i) become
measurable per round at the cost of one extra dot product per client.

The proxy preserves exactly what the paper's analysis cares about: how the
*distribution* of the applied corrections (1 - alpha_i) relates to the
distribution of client drift, and therefore how Y_t and the Corollary-2
gap move round over round.  Absolute magnitudes inherit the proxy's bias
and the assumed Assumption-1 smoothness constant L = 1 (which scales Y_t
without changing its round-over-round shape), so they are comparable
across rounds and across runs of the same config, not against the paper's
axes.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate
from ..theory.assumptions import estimate_client_heterogeneity
from ..theory.bounds import overcorrection_term
from ..theory.corollaries import corollary2_gap


def live_theory_scalars(
    alphas: Dict[int, float],
    updates: Sequence[ClientUpdate],
    local_steps: int,
    local_lr: float,
) -> Dict[str, float]:
    """Per-round ``theory.*`` scalars from one round's alphas and uploads.

    Returns ``{"theory.y_t": ..., "theory.corollary2_gap": ...,
    "theory.mean_drift_ratio": ...}`` — or an empty dict when the round is
    degenerate (no overlap between alphas and uploads, a numerically-zero
    mean update, or an all-zero correction assignment), so callers can
    publish the result unconditionally.
    """
    if not alphas or not updates:
        return {}
    covered = [u for u in updates if u.client_id in alphas]
    if not covered:
        return {}

    mean_delta = np.zeros_like(covered[0].delta)
    for update in covered:
        mean_delta += update.delta / len(covered)
    try:
        heterogeneity = estimate_client_heterogeneity(covered, mean_delta)
    except ValueError:
        return {}  # numerically-zero mean update: nothing to measure

    round_alphas = {u.client_id: alphas[u.client_id] for u in covered}
    # Assumption 3's G, proxied by the largest per-step local gradient scale
    # (||Delta_i|| accumulates K steps of eta_l-scaled gradients).
    gradient_bound = max(
        float(np.linalg.norm(u.delta)) for u in covered
    ) / (local_steps * local_lr)

    scalars: Dict[str, float] = {}
    try:
        scalars["theory.y_t"] = overcorrection_term(
            round_alphas,
            heterogeneity,
            smoothness=1.0,
            gradient_bound=gradient_bound,
            local_steps=local_steps,
            local_lr=local_lr,
        )
    except ValueError:
        pass
    try:
        scalars["theory.corollary2_gap"] = corollary2_gap(round_alphas, heterogeneity)
    except ValueError:
        pass
    ratios = [min(h.ratio, 1e6) for h in heterogeneity.values()]
    if ratios:
        scalars["theory.mean_drift_ratio"] = float(np.mean(ratios))
    return scalars
