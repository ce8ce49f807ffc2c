"""Naive reference kernels: the pre-optimisation implementations, kept as oracles.

These are deliberately slow, obviously-correct formulations (Python loops over
windows, per-call index construction, per-parameter concatenation, unfused
graphs of elementary Tensor ops).  The parity suite in
``tests/autograd/test_kernel_parity.py`` asserts the production kernels in
:mod:`repro.autograd.ops` and the arena-backed vector methods in
:mod:`repro.nn.module` match them — bit-identically where the operation order
is preserved — and ``tests/integration/test_fused_graph_equivalence.py``
trains whole runs on the unfused ``linear``/``cross_entropy`` oracles and on
``take_im2col_conv2d``.  That one is not naive: it is the previous production
``conv2d``, kept verbatim because the current kernel promises its bytes.
They are correctness oracles only: speed is measured end to end against the
previous production path by ``bench/run.py``.

Do not optimise anything here: being obviously correct is the point.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.autograd import log_softmax
from repro.autograd.tensor import Tensor, is_grad_enabled


def naive_conv2d(x: Tensor, weight: Tensor, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """im2col convolution with per-call index construction and np.add.at backward."""
    if padding:
        x = x.pad2d(padding)
    batch, in_c, height, width = x.shape
    out_c, _, kernel, _ = weight.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1

    # Fresh index arithmetic on every call (no lru_cache).
    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, in_c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * in_c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(in_c), kernel * kernel).reshape(-1, 1)

    cols = x.data[:, k, i, j]  # (batch, in_c*k*k, out_h*out_w)
    w_flat = weight.data.reshape(out_c, -1)
    # Per-batch GEMMs, where the production kernel runs one collapsed dgemm
    # through tensordot, so the two agree to a couple of ULP, not to the byte.
    # The other naive parts are the per-call index construction above and
    # the np.add.at scatter below.
    out = np.matmul(w_flat, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, out_c, 1)
    out = out.reshape(batch, out_c, out_h, out_w)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(g: np.ndarray):
        g_flat = g.reshape(batch, out_c, -1)
        grad_w = np.einsum("bop,bcp->oc", g_flat, cols, optimize=True).reshape(weight.shape)
        grad_cols = np.matmul(w_flat.T, g_flat)
        grad_x = np.zeros((batch, in_c, height, width), dtype=g.dtype)
        np.add.at(grad_x, (slice(None), k, i, j), grad_cols)
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(g_flat.sum(axis=(0, 2)))
        return tuple(grads)

    result = Tensor(out, requires_grad=any(p.requires_grad for p in parents), _parents=tuple(parents))
    if result.requires_grad:
        result._backward = backward
    return result


@lru_cache(maxsize=128)
def _im2col_indices(
    channels: int, height: int, width: int, kernel: int, stride: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices for im2col, plus flat scatter indices for the backward.

    Keyed on the per-sample geometry only (no batch dimension), so a final
    partial mini-batch reuses the same cache entry as the full-size batches.
    Returns ``(k, i, j, flat)`` where ``flat`` maps each im2col cell to its
    linear offset within one sample's ``(C, H, W)`` volume — used by the
    backward pass to scatter gradients with ``np.bincount`` (much faster
    than ``np.add.at`` on this single-core target).
    """
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1

    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    flat = (k * height + i) * width + j
    return k, i, j, flat


def take_im2col_conv2d(
    x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0
) -> Tensor:
    """The previous production ``conv2d``: cached indices and an ``np.take`` gather.

    Kept verbatim as a byte oracle.  It copies its column matrix into
    (batch, C*k*k, P) with ``np.take``, and ``tensordot`` and ``einsum``
    then transpose it again; ``repro.autograd.conv2d`` feeds the same calls
    a view of one strided copy and must give the same bytes.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, height, width)``.
    weight:
        Kernel of shape ``(out_channels, in_channels, k, k)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    """
    if padding:
        x = x.pad2d(padding)
    batch, in_c, height, width = x.shape
    out_c, w_in_c, kernel, kernel2 = weight.shape
    if w_in_c != in_c or kernel != kernel2:
        raise ValueError(
            f"weight shape {weight.shape} incompatible with input shape {x.shape}"
        )
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1

    _, _, _, flat = _im2col_indices(in_c, height, width, kernel, stride)
    # np.take on the flattened per-sample volume is the same pure copy as the
    # triple fancy index (identical bits) at roughly half the index overhead.
    cols = np.take(x.data.reshape(batch, -1), flat, axis=1)  # (batch, C*k*k, P)
    w_flat = weight.data.reshape(out_c, -1)
    # tensordot collapses the batched product into ONE dgemm; the broadcast
    # np.matmul form runs batch separate small GEMMs and is ~2x slower here.
    # BLAS may pick a different kernel for the collapsed shape, so values can
    # differ from the per-batch form by a couple of ULP (deterministic within
    # a run — all round-trip/equivalence guarantees are unaffected).
    out = np.tensordot(w_flat, cols, axes=([1], [1]))  # (out_c, batch, P)
    if bias is not None:
        out = out + bias.data.reshape(out_c, 1, 1)
    out = np.ascontiguousarray(out.transpose(1, 0, 2)).reshape(
        batch, out_c, out_h, out_w
    )

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    x_requires = x.requires_grad

    def backward(g: np.ndarray):
        g_flat = g.reshape(batch, out_c, -1)  # (batch, out_c, P)
        grad_w = np.einsum("bop,bcp->oc", g_flat, cols, optimize=True).reshape(weight.shape)
        grad_x = None
        if x_requires:
            grad_cols = np.matmul(w_flat.T, g_flat)  # (batch, C*k*k, P)
            # col2im as k*k vectorized strided adds — each in-window offset
            # maps its whole (batch, C, oH, oW) gradient block onto a strided
            # slice of the input in one shot.  Per input cell the addends
            # arrive in the same (kh, kw)-ascending order a per-element
            # np.add.at would use, so the sums match an element-wise scatter
            # of the same grad_cols bit-for-bit while running ~2x faster.
            # Skipped entirely for a non-grad input (the data batch at the
            # first layer): the dispatch would discard it anyway, and the
            # input-layer col2im is the single most expensive grad piece.
            windowed = grad_cols.reshape(batch, in_c, kernel * kernel, out_h, out_w)
            grad_x = np.zeros(x_shape, dtype=g.dtype)
            for offset in range(kernel * kernel):
                kh, kw = divmod(offset, kernel)
                grad_x[
                    :, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride
                ] += windowed[:, :, offset]
        if bias is None:
            return (grad_x, grad_w)
        grad_b = g_flat.sum(axis=(0, 2))
        return (grad_x, grad_w, grad_b)

    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    result = Tensor(out, requires_grad=requires, _parents=parents if requires else ())
    if requires:
        result._backward = backward
    return result


def naive_max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Double Python loop over output pixels; row-major argmax per window."""
    stride = stride or kernel
    batch, channels, height, width = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    out = np.empty((batch, channels, out_h, out_w), dtype=x.data.dtype)
    argmax = np.empty((batch, channels, out_h, out_w), dtype=np.int64)
    for oh in range(out_h):
        for ow in range(out_w):
            window = x.data[:, :, oh * stride : oh * stride + kernel, ow * stride : ow * stride + kernel]
            flat = window.reshape(batch, channels, -1)
            idx = flat.argmax(axis=2)
            argmax[:, :, oh, ow] = idx
            out[:, :, oh, ow] = np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0]

    def backward(g: np.ndarray):
        grad = np.zeros((batch, channels, height, width), dtype=g.dtype)
        for oh in range(out_h):
            for ow in range(out_w):
                idx = argmax[:, :, oh, ow]
                rows = oh * stride + idx // kernel
                cols = ow * stride + idx % kernel
                b = np.arange(batch).reshape(-1, 1)
                c = np.arange(channels).reshape(1, -1)
                np.add.at(grad, (b, c, rows, cols), g[:, :, oh, ow])
        return (grad,)

    result = Tensor(out, requires_grad=x.requires_grad, _parents=(x,) if x.requires_grad else ())
    if result.requires_grad:
        result._backward = backward
    return result


def _sigmoid(x: Tensor) -> Tensor:
    """The logistic as composed graph nodes: negate, exp, add and divide."""
    return 1.0 / (1.0 + (-x).exp())


def naive_lstm_cell_forward(cell, x: Tensor, h: Tensor, c: Tensor):
    """The unfused LSTM step: ~15 elementwise graph nodes per timestep.

    Uses the same parameters as ``cell`` so outputs and parameter gradients
    are directly comparable with the production ``LSTMCell``.
    """
    gates = x @ cell.weight_ih.T + h @ cell.weight_hh.T + cell.bias
    hs = cell.hidden_size
    i_gate = _sigmoid(gates[:, 0 * hs : 1 * hs])
    f_gate = _sigmoid(gates[:, 1 * hs : 2 * hs])
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = _sigmoid(gates[:, 3 * hs : 4 * hs])
    c_next = f_gate * c + i_gate * g_gate
    h_next = o_gate * c_next.tanh()
    return h_next, c_next


# ----------------------------------------------------------------------
# The previous production LSTM: one fused node per time step.  Kept
# verbatim as the byte oracle of ``repro.autograd.lstm_sequence``, which
# runs the same arithmetic for a whole sequence in one node.
# ----------------------------------------------------------------------
def narrow(x: Tensor, start: int, stop: int) -> Tensor:
    """Column slice ``x[:, start:stop]`` with an assignment-based backward.

    Unlike generic ``__getitem__`` (whose backward scatters with
    ``np.add.at``), the backward here is a plain slice assignment into a
    zero buffer — the fast path for splitting fused-op outputs.
    """
    data = x.data[:, start:stop]
    in_shape = x.shape

    def backward(g: np.ndarray):
        grad = np.zeros(in_shape, dtype=g.dtype)
        grad[:, start:stop] = g
        return (grad,)

    requires = is_grad_enabled() and x.requires_grad
    result = Tensor(data, requires_grad=requires, _parents=(x,) if requires else ())
    if requires:
        result._backward = backward
    return result


def lstm_step(
    x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor
) -> Tensor:
    """One fused LSTM cell step; returns ``[h', c']`` stacked as (batch, 2H).

    All four gates are sliced from a single ``(batch, 4H)`` matmul and the
    whole step is one graph node with a closed-form backward, replacing the
    ~17 per-step nodes (4 ``np.add.at`` slice backwards among them) the
    unfused composition records.  Gate ordering follows the torch
    convention: input, forget, cell, output.  Split the result with
    :func:`narrow` (see ``LSTMCell``).
    """
    hidden = w_hh.shape[1]
    gates = x.data @ w_ih.data.T + h.data @ w_hh.data.T + bias.data
    i_gate = 1.0 / (1.0 + np.exp(-gates[:, 0 * hidden : 1 * hidden]))
    f_gate = 1.0 / (1.0 + np.exp(-gates[:, 1 * hidden : 2 * hidden]))
    g_gate = np.tanh(gates[:, 2 * hidden : 3 * hidden])
    o_gate = 1.0 / (1.0 + np.exp(-gates[:, 3 * hidden : 4 * hidden]))
    c_next = f_gate * c.data + i_gate * g_gate
    tanh_c = np.tanh(c_next)
    h_next = o_gate * tanh_c
    out = np.concatenate([h_next, c_next], axis=1)

    x_data, h_data, c_data = x.data, h.data, c.data
    w_ih_data, w_hh_data = w_ih.data, w_hh.data
    parents = (x, h, c, w_ih, w_hh, bias)

    def backward(g: np.ndarray):
        grad_h = g[:, :hidden]
        grad_c_ext = g[:, hidden:]
        d_c = grad_c_ext + grad_h * o_gate * (1.0 - tanh_c**2)
        d_gates = np.empty_like(gates)
        d_gates[:, 0 * hidden : 1 * hidden] = d_c * g_gate * i_gate * (1.0 - i_gate)
        d_gates[:, 1 * hidden : 2 * hidden] = d_c * c_data * f_gate * (1.0 - f_gate)
        d_gates[:, 2 * hidden : 3 * hidden] = d_c * i_gate * (1.0 - g_gate**2)
        d_gates[:, 3 * hidden : 4 * hidden] = grad_h * tanh_c * o_gate * (1.0 - o_gate)
        return (
            d_gates @ w_ih_data,       # dx
            d_gates @ w_hh_data,       # dh
            d_c * f_gate,              # dc
            d_gates.T @ x_data,        # dW_ih
            d_gates.T @ h_data,        # dW_hh
            d_gates.sum(axis=0),       # dbias
        )

    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    result = Tensor(out, requires_grad=requires, _parents=parents if requires else ())
    if requires:
        result._backward = backward
    return result


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.split(g, splits, axis=axis))

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())
    if requires:
        out._backward = backward
    return out


def step_lstm_cell_forward(cell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """The previous ``LSTMCell.forward``: one ``lstm_step`` node and two narrows."""
    hs = cell.hidden_size
    hc = lstm_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
    return narrow(hc, 0, hs), narrow(hc, hs, 2 * hs)


def step_lstm_forward(lstm, x: Tensor, state: tuple[Tensor, Tensor] | None = None):
    """The previous ``LSTM.forward``: a per-step loop of cell nodes, then a concatenate."""
    batch, seq_len, _ = x.shape
    if state is None:
        h = Tensor(np.zeros((batch, lstm.hidden_size)))
        c = Tensor(np.zeros((batch, lstm.hidden_size)))
    else:
        h, c = state
    outputs = []
    for step in range(seq_len):
        h, c = step_lstm_cell_forward(lstm.cell, x[:, step, :], h, c)
        outputs.append(h.reshape(batch, 1, lstm.hidden_size))
    sequence = concatenate(outputs, axis=1)
    return sequence, (h, c)


def naive_linear(x: Tensor, weight: Tensor, bias) -> Tensor:
    """The unfused affine map: transpose, matmul and add graph nodes."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def naive_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """The unfused mean cross-entropy: log-softmax, pick, mean and negate nodes."""
    targets = np.asarray(targets, dtype=np.int64)
    picked = log_softmax(logits, axis=1)[np.arange(logits.shape[0]), targets]
    return -picked.mean()


def naive_parameters_vector(model) -> np.ndarray:
    """Per-call concatenation over parameters (the pre-arena implementation)."""
    params = model.parameters()
    if not params:
        return np.zeros(0)
    return np.concatenate([p.data.reshape(-1) for p in params])


def naive_gradient_vector(model) -> np.ndarray:
    chunks = []
    for p in model.parameters():
        if p.grad is None:
            chunks.append(np.zeros(p.size, dtype=p.data.dtype))
        else:
            chunks.append(p.grad.reshape(-1))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def naive_load_vector(model, vector: np.ndarray) -> None:
    offset = 0
    for p in model.parameters():
        span = p.size
        p.data[...] = vector[offset : offset + span].reshape(p.shape)
        offset += span
