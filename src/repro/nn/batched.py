"""Batched multi-client model programs.

A :class:`BatchedModelProgram` replicates one template model K times inside
a single :class:`~repro.nn.arena.BatchedClientArena`: every parameter
becomes a ``(clients, *shape)`` :class:`~repro.nn.module.Parameter` whose
row ``k`` is a zero-copy view of client k's slice of the ``(K, P)`` buffer.
``forward`` maps ``(clients, batch, ...)`` inputs to ``(clients, batch,
classes)`` logits through :func:`~repro.autograd.ops.linear` with
``(clients, out, in)`` cohort weights, and the whole program is
constructed so that slice ``k`` of the forward pass — and of every
parameter gradient — is bit-identical to running the template model on
client k's row alone (see
tests/autograd/test_batched_ops.py and tests/fl/test_batched_execution.py).

Only model architectures with a registered forward builder can be batched,
and today that is :class:`~repro.nn.models.MLP` alone: measured end to end,
batching pays off on MLP cohorts, whose per-step numpy dispatch dominates,
but not on PaperCNN, which had a batched program that never beat the
sequential loop (docs/PERFORMANCE.md).  :func:`supports_batched` is the
gate the simulation loop checks before taking the batched path, and
anything unsupported silently stays on the sequential oracle.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, linear
from .activations import ReLU
from .arena import BatchedClientArena
from .linear import Linear
from .models.mlp import MLP
from .module import Module, Parameter

#: A batched forward: (batched parameters in template order, input) -> logits.
BatchedForward = Callable[[Sequence[Parameter], Tensor], Tensor]


def _build_mlp(template: MLP) -> Optional[BatchedForward]:
    # One entry per layer: None for a ReLU, else the (weight, bias) indices
    # of a Linear into the template-ordered parameter list.
    plan: List[Optional[Tuple[int, Optional[int]]]] = []
    index = 0
    for layer in template.net:
        if isinstance(layer, Linear):
            bias_index = None if layer.bias is None else index + 1
            plan.append((index, bias_index))
            index += 1 if bias_index is None else 2
        elif isinstance(layer, ReLU):
            plan.append(None)
        else:
            return None  # custom layer type — stay on the sequential path

    def forward(params: Sequence[Parameter], x: Tensor) -> Tensor:
        if x.ndim > 3:
            x = x.flatten(start_dim=2)
        for step in plan:
            if step is None:
                x = x.relu()
            else:
                weight_index, bias_index = step
                bias = None if bias_index is None else params[bias_index]
                x = linear(x, params[weight_index], bias)
        return x

    return forward


def build_batched_forward(template: Module) -> Optional[BatchedForward]:
    """A batched forward for ``template``, or ``None`` if unsupported.

    Dispatch is on the exact model type — a subclass may override
    ``forward`` arbitrarily, so it must opt in with its own builder.
    """
    if type(template) is MLP:
        return _build_mlp(template)
    return None


def supports_batched(template: Module) -> bool:
    """Whether the batched execution path can replicate ``template``."""
    return build_batched_forward(template) is not None


class BatchedModelProgram:
    """K client replicas of a template model over one ``(K, P)`` arena."""

    def __init__(self, template: Module, clients: int) -> None:
        forward_fn = build_batched_forward(template)
        if forward_fn is None:
            raise ValueError(
                f"no batched forward registered for {type(template).__name__}"
            )
        arena = BatchedClientArena.from_parameters(clients, template.parameters())
        self.clients = clients
        self.arena = arena
        self._forward_fn = forward_fn
        self.params: List[Parameter] = []
        for index in range(len(arena)):
            view = arena.view(index)
            param = Parameter(view)
            param.data = view  # guarantee zero-copy aliasing into the arena
            self.params.append(param)
        arena.bind(self.params)

    # ------------------------------------------------------------------
    def load_rows(self, rows: Sequence[np.ndarray]) -> None:
        """Load one flat ``(P,)`` parameter vector per client row."""
        self.arena.load_rows(rows)

    def params_rows(self) -> np.ndarray:
        """Live ``(clients, P)`` parameter buffer (updated in place)."""
        return self.arena.params_rows()

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def forward(self, x: Tensor) -> Tensor:
        """Batched logits ``(clients, batch, classes)`` for batched input."""
        return self._forward_fn(self.params, x)

    def gradients_matrix(self) -> np.ndarray:
        """Copy of the ``(clients, P)`` gradient matrix (zeros where unset)."""
        return self.arena.gradients_matrix()
