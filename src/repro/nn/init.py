"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` so model
construction is deterministic given a seed — a hard requirement for
reproducible federated experiments where every client starts from the same
global model.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Process-wide fallback generator for layers built without an explicit rng.
#: A *shared* stream (rather than a fresh ``default_rng(0)`` per layer) means
#: sibling layers constructed back to back draw different values — two
#: ``Linear(4, 4)`` built without seeds no longer get identical weights.
#: Models that need determinism pass an explicit rng, which every in-tree
#: model does.
_SHARED_FALLBACK_RNG = np.random.default_rng(0)


def shared_fallback_rng() -> np.random.Generator:
    """The shared fallback generator used when no explicit rng is given."""
    return _SHARED_FALLBACK_RNG


def kaiming_uniform(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-uniform initialisation (gain for ReLU), as used by torch defaults."""
    bound = math.sqrt(6.0 / fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)


def xavier_uniform(shape: Tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform initialisation for tanh/sigmoid layers."""
    bound = math.sqrt(6.0 / (fan_in + fan_out)) if fan_in + fan_out > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)


def uniform_bias(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Torch-style bias initialisation: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)
