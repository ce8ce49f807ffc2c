"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, linear
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b``, one graph node per call (see
    :func:`repro.autograd.ops.linear`).

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to include the additive bias term.
    rng:
        Generator used for weight initialisation; defaults to the shared
        process-wide fallback stream, so sibling layers built without an
        explicit rng draw *different* weights.  Pass an explicit generator
        for reproducible construction (all in-tree models do).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or init.shared_fallback_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), fan_in=in_features, rng=rng)
        )
        if bias:
            self.bias = Parameter(init.uniform_bias((out_features,), fan_in=in_features, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"
