"""Recurrent layers (LSTM) for the Shakespeare next-character task.

A whole sequence runs through one :func:`repro.autograd.lstm_sequence`
node, so a T-step forward records one graph node (plus the slices that
read its output) instead of about five per step.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, lstm_sequence
from . import init
from .module import Module, Parameter


class LSTMCell(Module):
    """A single LSTM cell with fused gate weights.

    Gate ordering follows the torch convention: input, forget, cell, output.
    The cell owns the parameters of an :class:`LSTM`; one step runs as the
    T = 1 case of :func:`repro.autograd.lstm_sequence`.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or init.shared_fallback_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            init.xavier_uniform((4 * hidden_size, input_size), input_size, hidden_size, rng)
        )
        self.weight_hh = Parameter(
            init.xavier_uniform((4 * hidden_size, hidden_size), hidden_size, hidden_size, rng)
        )
        self.bias = Parameter(np.zeros(4 * hidden_size))

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        x_seq = x.reshape(x.shape[0], 1, x.shape[1])
        hc = lstm_sequence(x_seq, h, c, self.weight_ih, self.weight_hh, self.bias)
        return hc[0, 0], hc[0, 1]


class LSTM(Module):
    """Multi-step LSTM over ``(batch, seq, features)`` inputs.

    Returns the full hidden sequence and the final ``(h, c)`` state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        hs = self.hidden_size
        if state is None:
            h = Tensor(np.zeros((x.shape[0], hs)))
            c = Tensor(np.zeros((x.shape[0], hs)))
        else:
            h, c = state
        cell = self.cell
        hc = lstm_sequence(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
        return hc[:, 0].transpose(1, 0, 2), (hc[-1, 0], hc[-1, 1])
