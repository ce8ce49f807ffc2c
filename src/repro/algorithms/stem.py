"""STEM (Khanduri et al., 2021) — two-sided momentum.

Client side (Algorithm 1, line 6): a STORM-style recursive momentum

    v_{i,k} = g_{i,k} + (1 - alpha_t) * (v_{i,k-1} - grad f_i(w_{i,k-1}; xi_{i,k}))

which requires evaluating a **second** mini-batch gradient at the previous
iterate with the current batch — the source of STEM's ~+41% per-step compute
overhead (Table I) and its poor time-to-accuracy despite strong
round-to-accuracy.  The second gradient is genuinely computed here via
``grad_fn``, so measured wall-time shows the same effect.

Server side (line 10): the final local momentum v_{i,K-1} is uploaded and
folded into the aggregate:

    Delta_{t+1} = (1/(K N eta_l)) * sum_i (Delta_i^t + eta_l * v_{i,K-1})

(The eta_l factor converts the momentum direction to parameter-space scale,
keeping the aggregate consistent with Eq. (6).)
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState
from ..fl.timing import ComputeProfile
from ..telemetry import get_telemetry
from .base import GradFn, Strategy


class STEM(Strategy):
    """Two-sided (client + server) STORM-style momentum correction."""

    name = "stem"
    has_local_correction = True
    has_aggregation_correction = True

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10, alpha_t: float = 0.2) -> None:
        super().__init__(local_lr, local_steps)
        if not 0 < alpha_t <= 1:
            raise ValueError(f"alpha_t must be in (0, 1], got {alpha_t}")
        self.alpha_t = alpha_t
        self._momentum: Dict[int, np.ndarray] = {}
        self._prev_params: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._momentum = {}
        self._prev_params = {}

    def local_direction(
        self,
        client_id: int,
        step: int,
        params: np.ndarray,
        grad: np.ndarray,
        grad_fn: GradFn,
        payload: Dict[str, Any],
    ) -> np.ndarray:
        if step == 0:
            # Fresh momentum at the start of each round (v_{i,-1} = g_{i,0}).
            direction = grad
        else:
            prev_grad = grad_fn(self._prev_params[client_id])  # second gradient eval
            get_telemetry().counter("stem.extra_grad_evals").add(1)
            direction = grad + (1.0 - self.alpha_t) * (
                self._momentum[client_id] - prev_grad
            )
        self._momentum[client_id] = direction
        self._prev_params[client_id] = params.copy()
        return direction

    def batched_local_directions(
        self,
        step: int,
        params: np.ndarray,
        grads: np.ndarray,
        batched_grad_fn,
        client_ids: Sequence[int],
        payloads: Sequence[Dict[str, Any]],
    ) -> np.ndarray:
        """STORM momentum over the cohort with ONE extra batched gradient.

        The second gradient (at each client's previous iterate, current
        batch) is the expensive part of STEM; here all K evaluations run as
        a single batched pass over the stacked previous-parameter matrix,
        which is where the batched path's speedup for STEM comes from.
        Row k remains bit-identical to :meth:`local_direction` because the
        batched grad_fn is slice-exact and the momentum recursion applies
        the same scalar/vector operation order per row.
        """
        if step == 0:
            directions = grads
        else:
            prev_matrix = np.stack(
                [self._prev_params[client_id] for client_id in client_ids]
            )
            prev_grads = batched_grad_fn(prev_matrix)  # second gradient evals
            get_telemetry().counter("stem.extra_grad_evals").add(len(client_ids))
            directions = np.empty_like(grads)
            for row, client_id in enumerate(client_ids):
                directions[row] = grads[row] + (1.0 - self.alpha_t) * (
                    self._momentum[client_id] - prev_grads[row]
                )
        for row, client_id in enumerate(client_ids):
            self._momentum[client_id] = directions[row].copy()
            self._prev_params[client_id] = params[row].copy()
        return directions

    def client_update_extras(self, client_id: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"final_momentum": self._momentum[client_id].copy()}

    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.per_client(
                "stem.momentum_norm",
                {
                    u.client_id: float(np.linalg.norm(u.extras["final_momentum"]))
                    for u in updates
                },
            )
        total = np.zeros_like(updates[0].delta)
        for update in updates:
            total += update.delta + self.local_lr * update.extras["final_momentum"]
        return total / (self.local_steps * len(updates) * self.local_lr)

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, extra_grad=1)
