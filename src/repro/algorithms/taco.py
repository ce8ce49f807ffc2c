"""TACO — Tailored Adaptive Correction (the paper's Algorithm 2).

Per-client correction coefficients (Eq. 7), computed server-side from the
previous round's uploads:

    alpha_i^{t+1} = (1 - ||Delta_i^t|| / sum_j ||Delta_j^t||)
                    * max(cos(Delta_i^t, mean_j Delta_j^t), 0)

Local update (Eq. 8): every local step applies the tailored correction

    w <- w - eta_l * (g + gamma * (1 - alpha_i^t) * Delta_t)

Tailored aggregation (Eq. 9): alpha-weighted global gradient

    Delta_{t+1} = (1 / (K eta_l sum_j alpha_j^{t+1})) * sum_i alpha_i^{t+1} Delta_i^t

Freeloader detection (Eq. 10): a client whose alpha_i^{t+1} >= kappa
accumulates a strike; after lambda strikes it is expelled from training.

Final output (Eq. 15): z_T = w_T + (1 - alpha_T)(w_T - w_{T-1}) with
alpha_T the mean coefficient.

``use_tailored_correction`` / ``use_tailored_aggregation`` implement the
Table VI ablation: with both off, TACO degenerates to FedAvg exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState, cosine_similarity
from ..fl.timing import ComputeProfile
from ..telemetry import get_telemetry
from .base import GradFn, Strategy

INITIAL_ALPHA = 0.1  # Algorithm 2's initialisation alpha_i^0


class TACO(Strategy):
    """Tailored adaptive correction (Algorithm 2): Eq. 7-10 and 15."""

    name = "taco"
    has_local_correction = True
    has_aggregation_correction = True
    has_freeloader_detection = True

    def __init__(
        self,
        local_lr: float = 0.01,
        local_steps: int = 10,
        gamma: float | None = None,
        kappa: float = 0.6,
        expulsion_limit: int | None = None,
        use_tailored_correction: bool = True,
        use_tailored_aggregation: bool = True,
        detect_freeloaders: bool = True,
    ) -> None:
        super().__init__(local_lr, local_steps)
        # The paper's default gamma = 1/K (Section V-A and Fig. 7's
        # gamma* ~ 1/K finding).
        self.gamma = gamma if gamma is not None else 1.0 / local_steps
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < kappa <= 1.0:
            raise ValueError(f"kappa must be in (0, 1], got {kappa}")
        self.kappa = kappa
        #: lambda in the paper; default T/5 is applied by the experiment
        #: runner, 10 is a standalone-safe default.
        self.expulsion_limit = expulsion_limit if expulsion_limit is not None else 10
        self.use_tailored_correction = use_tailored_correction
        self.use_tailored_aggregation = use_tailored_aggregation
        self.detect_freeloaders = detect_freeloaders

        self._alphas: Dict[int, float] = {}
        #: Last computed alpha per client, surviving rounds the client
        #: misses; ``_alphas`` holds only the latest round's participants
        #: (the set Eq. 9/15 operate on).
        self._alpha_memory: Dict[int, float] = {}
        self._strikes: Dict[int, int] = {}
        self._expelled: set[int] = set()
        self.last_alphas: Dict[int, float] = {}

    def reset(self) -> None:
        self._alphas = {}
        self._alpha_memory = {}
        self._strikes = {}
        self._expelled = set()
        self.last_alphas = {}

    def state_dict(self) -> Dict[str, Any]:
        return {
            "alphas": dict(self._alphas),
            "alpha_memory": dict(self._alpha_memory),
            "strikes": dict(self._strikes),
            "expelled": set(self._expelled),
            "last_alphas": dict(self.last_alphas),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._alphas = {int(k): float(v) for k, v in state.get("alphas", {}).items()}
        self._alpha_memory = {
            int(k): float(v) for k, v in state.get("alpha_memory", {}).items()
        }
        self._strikes = {int(k): int(v) for k, v in state.get("strikes", {}).items()}
        self._expelled = {int(cid) for cid in state.get("expelled", set())}
        self.last_alphas = {
            int(k): float(v) for k, v in state.get("last_alphas", {}).items()
        }

    # ------------------------------------------------------------------
    # Client side — Eq. (8)
    # ------------------------------------------------------------------
    def alpha_for(self, client_id: int) -> float:
        # Fall back to the remembered coefficient for clients that missed
        # the previous round (partial participation or an injected drop):
        # reverting a returning client to the cold-start alpha would spike
        # its correction term for no reason.  Under full participation the
        # memory and the latest round's alphas coincide exactly.
        if client_id in self._alphas:
            return self._alphas[client_id]
        return self._alpha_memory.get(client_id, INITIAL_ALPHA)

    def client_payload(self, client_id: int, state: ServerState, broadcast: Dict[str, Any]) -> Dict[str, Any]:
        global_delta = state.global_delta
        if global_delta is None:
            global_delta = np.zeros_like(state.global_params)
        return {"alpha": self.alpha_for(client_id), "global_delta": global_delta}

    def local_direction(
        self,
        client_id: int,
        step: int,
        params: np.ndarray,
        grad: np.ndarray,
        grad_fn: GradFn,
        payload: Dict[str, Any],
    ) -> np.ndarray:
        if not self.use_tailored_correction or self.gamma == 0.0:
            return grad
        correction_factor = 1.0 - payload["alpha"]
        return grad + self.gamma * correction_factor * payload["global_delta"]

    def batched_local_directions(
        self,
        step: int,
        params: np.ndarray,
        grads: np.ndarray,
        batched_grad_fn,
        client_ids: Sequence[int],
        payloads: Sequence[Dict[str, Any]],
    ) -> np.ndarray:
        """Eq. (8) across the whole cohort in one broadcast.

        Every payload carries the same ``global_delta`` vector, so the
        tailored corrections collapse to an outer product of the per-client
        ``gamma * (1 - alpha_i)`` coefficients with Delta_t — row k is
        bit-identical to :meth:`local_direction` because scalar*vector and
        the final add happen in the same order per element.
        """
        if not self.use_tailored_correction or self.gamma == 0.0:
            return grads
        coefficients = np.array(
            [self.gamma * (1.0 - payload["alpha"]) for payload in payloads],
            dtype=grads.dtype,
        )
        return grads + coefficients[:, None] * payloads[0]["global_delta"][None, :]

    # ------------------------------------------------------------------
    # Server side — Eq. (7), (9), (10)
    # ------------------------------------------------------------------
    @staticmethod
    def compute_alphas(updates: Sequence[ClientUpdate]) -> Dict[int, float]:
        """Eq. (7): tailored coefficients from this round's local gradients."""
        if not updates:
            return {}
        norms = {u.client_id: float(np.linalg.norm(u.delta)) for u in updates}
        norm_sum = sum(norms.values())
        mean_delta = np.zeros_like(updates[0].delta)
        for update in updates:
            mean_delta += update.delta / len(updates)

        alphas: Dict[int, float] = {}
        for update in updates:
            if norm_sum <= 1e-12:
                alphas[update.client_id] = 0.0
                continue
            magnitude_term = 1.0 - norms[update.client_id] / norm_sum
            direction_term = max(cosine_similarity(update.delta, mean_delta), 0.0)
            alphas[update.client_id] = magnitude_term * direction_term
        return alphas

    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        self._alphas = dict(self.compute_alphas(updates))
        self._alpha_memory.update(self._alphas)
        self.last_alphas = dict(self._alphas)
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Eq. 7's direction ingredient: each client's drift cosine
            # against the round's mean update.  The alphas themselves and
            # the update norms are on the round's record.
            mean_delta = np.zeros_like(updates[0].delta)
            for update in updates:
                mean_delta += update.delta / len(updates)
            telemetry.per_client(
                "taco.drift_cosine",
                {u.client_id: cosine_similarity(u.delta, mean_delta) for u in updates},
            )

        if self.use_tailored_aggregation:
            weights = [self._alphas[u.client_id] for u in updates]
            weight_sum = sum(weights)
            if weight_sum <= 1e-12:
                # Degenerate round (e.g. all-orthogonal updates): fall back
                # to uniform so training continues.
                weights = [1.0] * len(updates)
                weight_sum = float(len(updates))
        else:
            weights = [1.0] * len(updates)
            weight_sum = float(len(updates))

        aggregated = np.zeros_like(updates[0].delta)
        for update, weight in zip(updates, weights):
            aggregated += weight * update.delta
        return aggregated / (self.local_steps * self.local_lr * weight_sum)

    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        if not self.detect_freeloaders:
            return
        if state.round == 0:
            # All clients descend the same initial landscape in round 0, so
            # every alpha_i^1 is inflated; counting strikes there would flag
            # benign clients.  (The paper's T >= 50 makes round 0 negligible
            # against lambda = T/5; at reduced scale it must be excluded.)
            return
        threshold_hits = 0
        for update in updates:
            if self._alphas.get(update.client_id, 0.0) >= self.kappa:
                threshold_hits += 1
                strikes = self._strikes.get(update.client_id, 0) + 1
                self._strikes[update.client_id] = strikes
                if strikes >= self.expulsion_limit:
                    self._expelled.add(update.client_id)
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Eq. 10's freeloader scoreboard: how many alphas crossed kappa
            # this round and the accumulated strike counts (the expulsions
            # are on the round's record).
            telemetry.scalar("taco.threshold_hits", float(threshold_hits))
            if self._strikes:
                telemetry.per_client(
                    "taco.strikes", {cid: float(n) for cid, n in self._strikes.items()}
                )

    @property
    def expelled(self) -> frozenset[int]:
        return frozenset(self._expelled)

    @property
    def strikes(self) -> Dict[int, int]:
        return dict(self._strikes)

    def mean_alpha(self) -> float:
        """Definition 2's alpha_t = (1/N) sum_i alpha_i^t."""
        if not self._alphas:
            return INITIAL_ALPHA
        return float(np.mean(list(self._alphas.values())))

    def final_output(self, state: ServerState) -> np.ndarray:
        """Eq. (15): z_T = w_T + (1 - alpha_T)(w_T - w_{T-1})."""
        if state.prev_global_params is None:
            return state.global_params
        alpha_t = self.mean_alpha()
        return state.global_params + (1.0 - alpha_t) * (
            state.global_params - state.prev_global_params
        )

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, correction=1 if self.use_tailored_correction else 0)
