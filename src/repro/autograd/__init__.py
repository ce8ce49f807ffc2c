"""Reverse-mode autograd engine over numpy.

Public surface:

- :class:`Tensor` — the autograd tensor type.
- :func:`tensor` — constructor.
- :func:`no_grad`, :func:`is_grad_enabled` — graph-recording control.
- :func:`set_default_dtype` / :func:`default_dtype` — float32/float64 compute
  mode (float64 is the bit-exact default).
- :mod:`repro.autograd.ops` — fused conv/pool/linear/softmax/loss
  primitives and :func:`lstm_sequence`, one node per LSTM sequence.
- :func:`check_gradients` — finite-difference validation.
"""

from .grad_check import check_gradients, numeric_gradient
from .ops import (
    batched_cross_entropy,
    conv2d,
    cross_entropy,
    linear,
    log_softmax,
    lstm_sequence,
    max_pool2d,
    softmax,
)
from .tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    tensor,
)

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "conv2d",
    "max_pool2d",
    "linear",
    "batched_cross_entropy",
    "lstm_sequence",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "check_gradients",
    "numeric_gradient",
]
