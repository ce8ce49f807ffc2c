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


def naive_avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Tiling-only reshape/mean average pooling (the old implementation)."""
    stride = stride or kernel
    batch, channels, height, width = x.shape
    if stride != kernel or height % kernel or width % kernel:
        raise ValueError("naive avg_pool2d supports only non-overlapping tilings")
    out_h, out_w = height // kernel, width // kernel
    tiled = x.data.reshape(batch, channels, out_h, kernel, out_w, kernel)
    out = tiled.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray):
        expanded = np.repeat(np.repeat(g, kernel, axis=2), kernel, axis=3)
        return (expanded * scale,)

    result = Tensor(out, requires_grad=x.requires_grad, _parents=(x,) if x.requires_grad else ())
    if result.requires_grad:
        result._backward = backward
    return result


def naive_lstm_cell_forward(cell, x: Tensor, h: Tensor, c: Tensor):
    """The unfused LSTM step: ~15 elementwise graph nodes per timestep.

    Uses the same parameters as ``cell`` so outputs and parameter gradients
    are directly comparable with the fused ``lstm_step`` path.
    """
    gates = x @ cell.weight_ih.T + h @ cell.weight_hh.T + cell.bias
    hs = cell.hidden_size
    i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_next = f_gate * c + i_gate * g_gate
    h_next = o_gate * c_next.tanh()
    return h_next, c_next


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
