"""TACO-tailored hybrids of FedProx and Scaffold (the paper's Fig. 6).

Section V-B: "we refine FedProx and Scaffold by replacing their coefficients
zeta and alpha with our tailored correction coefficients alpha_i^t".  Both
hybrids compute TACO's Eq. (7) coefficients server-side each round and scale
the original method's correction per client following Corollary 2: a fixed
total correction budget is distributed *proportionally to each client's
correction factor* (1 - alpha_i^t),

    scale_i = budget * (1 - alpha_i^t) / mean_j (1 - alpha_j^t),

so well-aligned clients are corrected gently and divergent clients firmly —
while the budget keeps the average correction bounded, which is exactly
what rescues uniform Scaffold from its over-correction collapse (the
paper's Fig. 2/Fig. 6 story, and our Scaffold-alpha dose-response: alpha =
1.0 collapses where alpha ~ 0.2 excels).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState
from .fedprox import FedProx
from .scaffold import Scaffold
from .taco import INITIAL_ALPHA, TACO


def _tailored_scales(alphas: Mapping[int, float]) -> Dict[int, float]:
    """Per-client (1 - alpha_i) normalised to mean 1 (the budget multiplier)."""
    if not alphas:
        return {}
    corrections = {cid: 1.0 - a for cid, a in alphas.items()}
    mean = float(np.mean(list(corrections.values())))
    if mean <= 1e-9:
        return {cid: 1.0 for cid in alphas}
    return {cid: c / mean for cid, c in corrections.items()}


class TailoredFedProx(FedProx):
    """FedProx with per-client zeta_i^t = zeta * (1 - alpha_i^t) / mean(1 - alpha).

    The mean-normalisation keeps the average proximal strength at the
    original zeta, so Fig. 6 isolates the effect of *distributing* the
    correction according to need rather than changing its total amount.
    """

    name = "taco-prox"

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10, zeta: float = 0.1) -> None:
        super().__init__(local_lr, local_steps, zeta)
        self._scales: Dict[int, float] = {}
        self.last_alphas: Dict[int, float] = {}

    def reset(self) -> None:
        self._scales = {}
        self.last_alphas = {}

    def per_client_zeta(self, client_id: int, state: ServerState) -> float:
        return self.zeta * self._scales.get(client_id, 1.0)

    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        alphas = TACO.compute_alphas(updates)
        self.last_alphas = dict(alphas)
        self._scales = _tailored_scales(alphas)


class TailoredScaffold(Scaffold):
    """Scaffold with a bounded, tailored control-variate scale.

    The uniform alpha = 1 is replaced by

        scale_i = budget * (1 - alpha_i^t) / mean_j (1 - alpha_j^t)

    where ``budget`` bounds the average correction strength (the analogue of
    TACO's maximum correction factor gamma).  Under heavy label skew the
    uniform original over-corrects and collapses; the tailored, budgeted
    version stays stable — the Fig. 6 rescue.
    """

    name = "taco-scaffold"

    def __init__(
        self,
        local_lr: float = 0.01,
        local_steps: int = 10,
        alpha: float = 1.0,
        budget: float = 0.3,
    ) -> None:
        super().__init__(local_lr, local_steps, alpha)
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {budget}")
        self.budget = budget
        self._scales: Dict[int, float] = {}
        self.last_alphas: Dict[int, float] = {}

    def reset(self) -> None:
        super().reset()
        self._scales = {}
        self.last_alphas = {}

    def correction_scale(self, client_id: int, payload: Dict[str, Any]) -> float:
        return self.budget * self._scales.get(client_id, 1.0)

    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        super().post_round(state, updates)
        alphas = TACO.compute_alphas(updates)
        self.last_alphas = dict(alphas)
        self._scales = _tailored_scales(alphas)
