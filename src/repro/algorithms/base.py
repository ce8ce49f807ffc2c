"""Strategy API: one class per FL algorithm.

A :class:`Strategy` owns both sides of Algorithm 1's colour-coding:

- **client side** — :meth:`local_direction` maps the mini-batch gradient
  ``g_{i,k}^t`` to the applied update direction ``v_{i,k}^t`` (Scaffold /
  STEM / TACO corrections), and :meth:`prox_gradient` contributes the
  gradient of any loss-regularisation term (FedProx / FedACG);
- **server side** — :meth:`aggregate` maps the collected ``Delta_i^t`` to the
  global gradient ``Delta_{t+1}`` of Eq. (6)/(9), and :meth:`post_round`
  updates auxiliary server state (control variates, momentum, TACO's
  alpha coefficients and freeloader counters).

The client training loop (:mod:`repro.fl.client`) calls the hooks in this
order per local step::

    g = grad_fn(params)                       # mini-batch gradient
    g = g + prox_gradient(params, payload)    # loss-regularisation term
    v = local_direction(cid, k, params, g, grad_fn, payload)
    params -= eta_l * v

``grad_fn`` evaluates the mini-batch gradient at *arbitrary* parameters for
the current batch — STEM uses it to compute its second gradient, and the
extra work really happens, so measured wall-time reflects the algorithm's
true overhead.
"""

from __future__ import annotations

import bisect
from collections import abc
from typing import Any, Callable, Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState
from ..fl.timing import ComputeProfile

GradFn = Callable[[np.ndarray], np.ndarray]

#: Batched analogue of :data:`GradFn`: maps a ``(clients, P)`` parameter
#: matrix to the ``(clients, P)`` mini-batch gradients for the cohort's
#: current batches (row k is bit-identical to client k's sequential
#: ``grad_fn`` at the same parameters).
BatchedGradFn = Callable[[np.ndarray], np.ndarray]


class Strategy:
    """Base class; defaults implement plain FedAvg behaviour."""

    name: str = "base"
    #: Table III feature flags
    has_local_correction: bool = False
    has_aggregation_correction: bool = False
    has_freeloader_detection: bool = False

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10) -> None:
        if local_lr <= 0:
            raise ValueError(f"local learning rate must be positive, got {local_lr}")
        if local_steps <= 0:
            raise ValueError(f"local steps must be positive, got {local_steps}")
        self.local_lr = local_lr
        self.local_steps = local_steps

    # ------------------------------------------------------------------
    # Server -> clients
    # ------------------------------------------------------------------
    def broadcast(self, state: ServerState) -> Dict[str, Any]:
        """Payload sent to every client at the start of a round."""
        return {}

    def client_payload(self, client_id: int, state: ServerState, broadcast: Dict[str, Any]) -> Dict[str, Any]:
        """Per-client view of the broadcast (e.g. TACO's alpha_i^t)."""
        return broadcast

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def prox_gradient(self, params: np.ndarray, payload: Dict[str, Any]) -> np.ndarray | None:
        """Gradient of the loss-regularisation term, or None."""
        return None

    def local_direction(
        self,
        client_id: int,
        step: int,
        params: np.ndarray,
        grad: np.ndarray,
        grad_fn: GradFn,
        payload: Dict[str, Any],
    ) -> np.ndarray:
        """Map the (regularised) gradient to the applied direction v_{i,k}^t."""
        return grad

    def client_update_extras(self, client_id: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Extra fields uploaded with Delta_i^t (e.g. STEM's v_{i,K-1})."""
        return {}

    def batched_local_directions(
        self,
        step: int,
        params: np.ndarray,
        grads: np.ndarray,
        batched_grad_fn: BatchedGradFn,
        client_ids: Sequence[int],
        payloads: Sequence[Dict[str, Any]],
    ) -> np.ndarray:
        """Vectorized :meth:`local_direction` over a ``(clients, P)`` cohort.

        Called by the batched execution path (:mod:`repro.fl.batched`) once
        per local step with every client's current parameters and
        regularised gradients stacked along a leading client axis.  Row k
        of the returned matrix must be bit-identical to what
        ``local_direction(client_ids[k], step, params[k], grads[k], ...)``
        would produce (loss-regularisation terms are already folded into
        ``grads`` by the executor, exactly as in the sequential loop).

        The base implementation is exact for every strategy: when
        ``local_direction`` is not overridden the directions *are* the
        gradients, and otherwise it falls back to row-wise calls of the
        sequential hook — correct for arbitrary overrides (a row-sliced
        ``grad_fn`` re-evaluates the whole cohort, so strategies that use
        it should override this hook with a vectorized version; see STEM).
        """
        if type(self).local_direction is Strategy.local_direction:
            return grads

        directions = np.empty_like(grads)
        for row, client_id in enumerate(client_ids):

            def row_grad_fn(at_params: np.ndarray, _row: int = row) -> np.ndarray:
                matrix = params.copy()
                matrix[_row] = at_params
                return batched_grad_fn(matrix)[_row]

            directions[row] = self.local_direction(
                client_id, step, params[row], grads[row], row_grad_fn, payloads[row]
            )
        return directions

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        """Compute Delta_{t+1} from the collected local gradients.

        The default is Eq. (6) option (i): Delta = (1/(K N eta_l)) * sum Delta_i.
        """
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        scale = 1.0 / (self.local_steps * len(updates) * self.local_lr)
        total = np.zeros_like(updates[0].delta)
        for update in updates:
            total += update.delta
        return scale * total

    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        """Update auxiliary server state after aggregation."""

    @property
    def expelled(self) -> frozenset[int]:
        """Clients that may no longer train (Eq. 10): the one expulsion hook."""
        return frozenset()

    def active_clients(self, state: ServerState, all_clients: Sequence[int]) -> Sequence[int]:
        """``all_clients`` minus :attr:`expelled`, in order; O(|expelled|) memory."""
        expelled = self.expelled
        return _ActiveView(all_clients, expelled) if expelled else all_clients

    def final_output(self, state: ServerState) -> np.ndarray:
        """The model the algorithm reports at the end (TACO returns z_T)."""
        return state.global_params

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def compute_profile(self) -> ComputeProfile:
        """Unit operations per local step, for the timing model."""
        return ComputeProfile()

    def reset(self) -> None:
        """Clear any per-run state so the strategy can be reused."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable cross-round state (for checkpoint/resume).

        Values may be ``np.ndarray``, JSON scalars, sets of ints, or dicts
        (keyed by int or str) of those; stateless strategies return ``{}``.
        STEM deliberately has nothing here: its client momenta are reset at
        local step 0 of every round, so no momentum state crosses a round
        boundary (which is also why an injected drop cannot desynchronise
        it).
        """
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(lr={self.local_lr}, K={self.local_steps})"


class _ActiveView(abc.Sequence):
    """``ids`` minus ``expelled``, read-only and in order, never copying ``ids``.

    Kept id i sits at position i + (expelled positions before it), counted by
    bisecting the non-decreasing ``holes[j] - j`` (``index`` is O(1) on a range).
    """

    def __init__(self, ids: Sequence[int], expelled: frozenset[int]) -> None:
        self._ids = ids
        self._expelled = expelled
        holes = sorted(ids.index(cid) for cid in expelled if cid in ids)
        self._shifted = [hole - j for j, hole in enumerate(holes)]

    def __len__(self) -> int:
        return len(self._ids) - len(self._shifted)

    def __getitem__(self, index) -> int:
        index = range(len(self))[index]  # bounds-checked, negatives resolved
        return self._ids[index + bisect.bisect_right(self._shifted, index)]

    def __iter__(self):
        return (cid for cid in self._ids if cid not in self._expelled)
