"""Scaffold (Karimireddy et al., 2020) — control-variate correction.

Every local step applies v = g + alpha * (c_t - c_i^t) (Algorithm 1, line
6), where c_t is the server control variate and c_i^t the client's.  After a
round, the option-II updates from the original paper are applied:

    c_i^{t+1} = c_i^t - c_t + Delta_i^t / (K eta_l)
    c_{t+1}   = c_t + (1/N) * sum_i (c_i^{t+1} - c_i^t)

The correction coefficient alpha is **uniform across clients** (the paper
re-evaluates with alpha = 1, its original setting); over-correction on hard
skews is exactly what TACO's tailored coefficients fix (Fig. 6).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState
from ..fl.timing import ComputeProfile
from ..telemetry import get_telemetry
from .base import GradFn, Strategy


class Scaffold(Strategy):
    """Control-variate correction with a uniform coefficient alpha."""

    name = "scaffold"
    has_local_correction = True

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10, alpha: float = 1.0) -> None:
        super().__init__(local_lr, local_steps)
        self.alpha = alpha
        self._server_control: np.ndarray | None = None
        self._client_controls: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._server_control = None
        self._client_controls = {}

    def state_dict(self) -> Dict[str, Any]:
        # A client that misses a round (sampling or injected crash) simply
        # keeps its old control variate — post_round only touches uploaders
        # — so partial rounds never desynchronise the control state.
        state: Dict[str, Any] = {"client_controls": dict(self._client_controls)}
        if self._server_control is not None:
            state["server_control"] = self._server_control
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._server_control = state.get("server_control")
        self._client_controls = {
            int(cid): control for cid, control in state.get("client_controls", {}).items()
        }

    # ------------------------------------------------------------------
    def _ensure_controls(self, state: ServerState, client_id: int) -> None:
        # zeros_like: the controls live in the compute dtype of w_t.
        if self._server_control is None:
            self._server_control = np.zeros_like(state.global_params)
        if client_id not in self._client_controls:
            self._client_controls[client_id] = np.zeros_like(state.global_params)

    def client_payload(self, client_id: int, state: ServerState, broadcast: Dict[str, Any]) -> Dict[str, Any]:
        self._ensure_controls(state, client_id)
        return {
            "server_control": self._server_control,
            "client_control": self._client_controls[client_id],
        }

    def correction_scale(self, client_id: int, payload: Dict[str, Any]) -> float:
        """Uniform alpha; overridden by the tailored hybrid (Fig. 6)."""
        return self.alpha

    def local_direction(
        self,
        client_id: int,
        step: int,
        params: np.ndarray,
        grad: np.ndarray,
        grad_fn: GradFn,
        payload: Dict[str, Any],
    ) -> np.ndarray:
        scale = self.correction_scale(client_id, payload)
        return grad + scale * (payload["server_control"] - payload["client_control"])

    # ------------------------------------------------------------------
    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        if self._server_control is None:
            self._server_control = np.zeros_like(state.global_params)
        control_shift = np.zeros_like(state.global_params)
        for update in updates:
            cid = update.client_id
            self._ensure_controls(state, cid)
            new_control = (
                self._client_controls[cid]
                - self._server_control
                + update.delta / (self.local_steps * self.local_lr)
            )
            control_shift += new_control - self._client_controls[cid]
            self._client_controls[cid] = new_control
        self._server_control = self._server_control + control_shift / state.num_clients
        telemetry = get_telemetry()
        if telemetry.enabled:  # norms computed only when someone listens
            telemetry.scalar(
                "scaffold.server_control_norm",
                float(np.linalg.norm(self._server_control)),
            )
            telemetry.per_client(
                "scaffold.client_control_norm",
                {
                    u.client_id: float(np.linalg.norm(self._client_controls[u.client_id]))
                    for u in updates
                },
            )

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, control_variate=1)
