"""Reverse-mode autograd engine over numpy.

Public surface:

- :class:`Tensor` — the autograd tensor type.
- :func:`tensor`, :func:`zeros`, :func:`ones` — constructors.
- :func:`no_grad`, :func:`is_grad_enabled` — graph-recording control.
- :func:`concatenate`, :func:`stack`, :func:`where` — multi-input ops.
- :func:`set_default_dtype` / :func:`default_dtype` — float32/float64 compute
  mode (float64 is the bit-exact default).
- :mod:`repro.autograd.ops` — fused conv/pool/linear/LSTM/softmax/loss
  primitives.
- :func:`check_gradients` — finite-difference validation.
"""

from .grad_check import check_gradients, numeric_gradient
from .ops import (
    avg_pool2d,
    batched_cross_entropy,
    conv2d,
    cross_entropy,
    linear,
    log_softmax,
    lstm_step,
    max_pool2d,
    narrow,
    nll_loss,
    softmax,
)
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    ones,
    set_default_dtype,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "concatenate",
    "stack",
    "where",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "linear",
    "batched_cross_entropy",
    "lstm_step",
    "narrow",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "nll_loss",
    "check_gradients",
    "numeric_gradient",
]
