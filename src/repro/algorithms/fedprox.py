"""FedProx (Li et al., 2020) — loss-function regularisation.

Adds the proximal term (zeta/2)||w - w_t||^2 to every local loss
(Algorithm 1, line 4).  The gradient contribution zeta * (w - w_t) is added
in closed form; the compute profile charges one ``prox`` unit per step,
matching the paper's measured +23.5% overhead (Table I).

The correction coefficient zeta is **uniform across clients** — the paper's
Section III identifies exactly this as a source of over-correction.  The
``per_client_zeta`` hook exists so the TACO hybrid (Fig. 6) can substitute
tailored coefficients.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..fl.state import ServerState
from ..fl.timing import ComputeProfile
from ..telemetry import get_telemetry
from .base import Strategy


class FedProx(Strategy):
    """Proximal-term local correction with a uniform coefficient zeta."""

    name = "fedprox"
    has_local_correction = True

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10, zeta: float = 0.1) -> None:
        super().__init__(local_lr, local_steps)
        if zeta < 0:
            raise ValueError(f"zeta must be non-negative, got {zeta}")
        self.zeta = zeta

    def broadcast(self, state: ServerState) -> Dict[str, Any]:
        return {"anchor": state.global_params}

    def client_payload(self, client_id: int, state: ServerState, broadcast: Dict[str, Any]) -> Dict[str, Any]:
        payload = dict(broadcast)
        payload["zeta"] = self.per_client_zeta(client_id, state)
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Uniform in the original, per-client under the Fig. 6 hybrid —
            # recording it per client makes the difference visible.
            telemetry.per_client("fedprox.zeta", {client_id: payload["zeta"]})
        return payload

    def per_client_zeta(self, client_id: int, state: ServerState) -> float:
        """Uniform zeta; overridden by the tailored hybrid (Fig. 6)."""
        return self.zeta

    def prox_gradient(self, params: np.ndarray, payload: Dict[str, Any]) -> np.ndarray:
        return payload["zeta"] * (params - payload["anchor"])

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, prox=1)
