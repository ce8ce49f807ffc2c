"""FedACG (Kim et al., 2024) — accelerated client gradient.

Combines server momentum with a client-side regulariser toward the
momentum-lookahead point (Algorithm 1, lines 4 and 10):

- clients minimise f_i(w) + (beta/2) * ||w - w_t - m_t||^2
- the server keeps a momentum m_{t+1} = lam * m_t + avg_delta and folds it
  into the global step: Delta_{t+1} = avg_delta / (K eta_l) + m_{t+1}/eta_g

with data-quantity aggregation weights D_i / D as in the paper's line 10.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState
from ..fl.timing import ComputeProfile
from ..telemetry import get_telemetry
from .base import Strategy


class FedACG(Strategy):
    """Server momentum lookahead + client regularisation toward it."""

    name = "fedacg"
    has_local_correction = True
    has_aggregation_correction = True

    def __init__(
        self,
        local_lr: float = 0.01,
        local_steps: int = 10,
        beta: float = 0.001,
        momentum_decay: float = 0.85,
    ) -> None:
        super().__init__(local_lr, local_steps)
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        if not 0 <= momentum_decay < 1:
            raise ValueError(f"momentum decay must be in [0, 1), got {momentum_decay}")
        self.beta = beta
        self.momentum_decay = momentum_decay
        self._momentum: np.ndarray | None = None

    def reset(self) -> None:
        self._momentum = None

    def state_dict(self) -> Dict[str, Any]:
        # The momentum is a pure server-side aggregate over whichever
        # clients delivered: a dropped upload just contributes nothing to
        # avg_delta this round, so drops cannot desynchronise it.
        return {} if self._momentum is None else {"momentum": self._momentum}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._momentum = state.get("momentum")

    def broadcast(self, state: ServerState) -> Dict[str, Any]:
        if self._momentum is None:
            self._momentum = np.zeros_like(state.global_params)
        lookahead = self.momentum_decay * self._momentum
        # Clients start local training from the accelerated point
        # w_t - lam * m_t and regularise toward it (Algorithm 1, line 4).
        return {"start_shift": -lookahead, "lookahead": lookahead}

    def prox_gradient(self, params: np.ndarray, payload: Dict[str, Any]) -> np.ndarray:
        # params here are relative to the lookahead start, which IS the
        # regularisation anchor, so the pull is toward the start point.
        return self.beta * (params - payload["anchor"])

    def client_payload(self, client_id: int, state: ServerState, broadcast: Dict[str, Any]) -> Dict[str, Any]:
        payload = dict(broadcast)
        payload["anchor"] = state.global_params - broadcast["lookahead"]
        return payload

    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        samples = sum(update.num_samples for update in updates)
        avg_delta = np.zeros_like(updates[0].delta)
        for update in updates:
            avg_delta += (update.num_samples / samples) * update.delta

        if self._momentum is None:
            self._momentum = np.zeros_like(avg_delta)
        # m_{t+1} = lam * m_t + average client movement (parameter units);
        # the server step applies exactly m_{t+1}: w_{t+1} = w_t - m_{t+1}.
        self._momentum = self.momentum_decay * self._momentum + avg_delta
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.scalar(
                "fedacg.momentum_norm", float(np.linalg.norm(self._momentum))
            )
        eta_g = self.local_steps * self.local_lr
        return self._momentum / eta_g

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, prox=1, momentum=1)
