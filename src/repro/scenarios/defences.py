"""Defence axis of the scenario matrix.

A *defence* is everything the server can deploy against poisoned uploads
without changing the clients' local update rule:

- ``"none"`` — the algorithm runs exactly as registered (the undefended
  baseline every verdict is measured against);
- ``"guard"`` — the self-healing layer: a default :class:`GuardPolicy`
  (anomaly detection + rollback) stacked on a default
  :class:`DegradationPolicy` (non-finite and norm-outlier quarantine);
- any name in :data:`repro.algorithms.ROBUST_AGGREGATORS` — the base
  algorithm keeps its client-side behaviour but its server-side estimate is
  replaced by the robust rule via :class:`AggregationDefence`.

This is what makes the defence axis orthogonal to the algorithm axis: the
robust rules are registered as standalone strategies (they replace FedAvg
wholesale), while the wrapper lets TACO keep its tailored corrections and
Scaffold its control variates *under* a robust server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..algorithms import ROBUST_AGGREGATORS, make_strategy
from ..algorithms.base import Strategy
from ..fl.degradation import DegradationPolicy
from ..fl.state import ClientUpdate, ServerState
from ..fl.timing import ComputeProfile
from ..guard import GuardPolicy

#: Defence names accepted by the matrix (and ``repro scenarios --defences``).
DEFENCES = ("none", "guard") + ROBUST_AGGREGATORS


def defence_names() -> tuple[str, ...]:
    """All defence names, in presentation order."""
    return DEFENCES


class AggregationDefence(Strategy):
    """Run a base algorithm's clients under a robust server aggregate.

    Every client-side hook (payloads, prox terms, local directions) and all
    server bookkeeping (``post_round``, expulsions, ``final_output``) is
    forwarded to the base algorithm.  The base ``aggregate`` is still
    *called* — TACO computes its alphas there, FoolsGold its similarity
    history — but its returned global gradient is discarded in favour of
    the robust aggregator's estimate over the same updates.
    """

    def __init__(self, base: Strategy, aggregator: Strategy) -> None:
        super().__init__(base.local_lr, base.local_steps)
        self.base = base
        self.aggregator = aggregator
        self.name = f"{base.name}+{aggregator.name}"
        self.has_local_correction = base.has_local_correction
        self.has_aggregation_correction = True
        self.has_freeloader_detection = base.has_freeloader_detection

    # -- server -> clients -------------------------------------------------
    def broadcast(self, state: ServerState) -> Dict[str, Any]:
        return self.base.broadcast(state)

    def client_payload(
        self, client_id: int, state: ServerState, broadcast: Dict[str, Any]
    ) -> Dict[str, Any]:
        return self.base.client_payload(client_id, state, broadcast)

    # -- client side -------------------------------------------------------
    def prox_gradient(self, params: np.ndarray, payload: Dict[str, Any]) -> np.ndarray | None:
        return self.base.prox_gradient(params, payload)

    def local_direction(self, client_id, step, params, grad, grad_fn, payload):
        return self.base.local_direction(client_id, step, params, grad, grad_fn, payload)

    def client_update_extras(self, client_id: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.base.client_update_extras(client_id, payload)

    # -- server side -------------------------------------------------------
    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        self.base.aggregate(state, updates)  # drive base bookkeeping only
        return self.aggregator.aggregate(state, updates)

    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        self.base.post_round(state, updates)
        self.aggregator.post_round(state, updates)

    def active_clients(self, state: ServerState, all_clients: Sequence[int]) -> List[int]:
        return self.base.active_clients(state, all_clients)

    @property
    def expelled(self) -> frozenset[int]:
        """The base algorithm's expelled ids (empty when it never expels)."""
        return getattr(self.base, "expelled", frozenset())

    def final_output(self, state: ServerState) -> np.ndarray:
        return self.base.final_output(state)

    def compute_profile(self) -> ComputeProfile:
        return self.base.compute_profile()

    def reset(self) -> None:
        self.base.reset()
        self.aggregator.reset()

    def state_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        base = self.base.state_dict()
        aggregator = self.aggregator.state_dict()
        if base:
            state["base"] = base
        if aggregator:
            state["aggregator"] = aggregator
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.base.load_state_dict(state.get("base", {}))
        self.aggregator.load_state_dict(state.get("aggregator", {}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregationDefence({self.base!r}, {self.aggregator!r})"


@dataclass
class ResolvedDefence:
    """One defence instantiated for a concrete (config, algorithm) cell."""

    name: str
    strategy: Optional[Strategy]  # None -> run_algorithm's default strategy
    guard: Optional[GuardPolicy]
    degradation: Optional[DegradationPolicy]


def _aggregator_overrides(name: str, config) -> Dict[str, Any]:
    """Per-rule parameters sized to the cell's assumed adversary count."""
    attackers = max(1, config.num_attackers)
    if name == "krum":
        # Krum needs n > f + 2; cap f so a full cohort always satisfies it.
        return {"byzantine_count": min(attackers, max(1, config.num_clients - 3))}
    if name == "trimmed-mean":
        # Trimming needs n > 2b; cap b likewise.
        return {"trim": min(attackers, max(1, (config.num_clients - 1) // 2))}
    return {}


def resolve_defence(name: str, config, base: Strategy) -> ResolvedDefence:
    """Instantiate a defence by name for one cell of the matrix.

    ``base`` is the already-built algorithm strategy the defence wraps (or
    passes through).  Unknown names fail with the registered list.
    """
    if name == "none":
        return ResolvedDefence(name, base, None, None)
    if name == "guard":
        return ResolvedDefence(name, base, GuardPolicy(), DegradationPolicy())
    if name in ROBUST_AGGREGATORS:
        aggregator = make_strategy(
            name,
            local_lr=config.local_lr,
            local_steps=config.local_steps,
            **_aggregator_overrides(name, config),
        )
        return ResolvedDefence(name, AggregationDefence(base, aggregator), None, None)
    raise ValueError(
        f"unknown defence {name!r}; registered defences: {', '.join(defence_names())}"
    )
