"""Parameter server: applies the strategy's aggregation each round."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .state import ClientUpdate, ServerState


class Server:
    """Holds global model state and applies Eq. (6): w_{t+1} = w_t - eta_g * Delta.

    The global learning rate defaults to the paper's eta_g = K * eta_l, which
    makes the FedAvg aggregation exactly the average of client models.
    """

    def __init__(self, initial_params: np.ndarray, global_lr: float, num_clients: int) -> None:
        if global_lr <= 0:
            raise ValueError(f"global learning rate must be positive, got {global_lr}")
        self.global_lr = global_lr
        self.state = ServerState(
            global_params=initial_params.copy(),
            global_delta=np.zeros_like(initial_params),
            num_clients=num_clients,
        )

    def run_aggregation(self, strategy, updates: Sequence[ClientUpdate]) -> np.ndarray:
        """Aggregate updates, step the global model, advance the round.

        With zero surviving updates (every upload dropped or quarantined)
        the round degrades to a no-op global step: the strategy is not
        consulted — so no auxiliary state desynchronises — and
        w_{t+1} = w_t with a zero global gradient.
        """
        if not updates:
            return self.skip_round()
        delta = strategy.aggregate(self.state, updates)
        new_params = self.state.global_params - self.global_lr * delta
        strategy.post_round(self.state, updates)
        self.state.advance(new_params, delta)
        return new_params

    def skip_round(self) -> np.ndarray:
        """Advance the round without a global step (quorum failure)."""
        self.state.advance(
            self.state.global_params.copy(), np.zeros_like(self.state.global_params)
        )
        return self.state.global_params
