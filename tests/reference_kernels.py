"""Naive reference kernels: the pre-optimisation implementations, kept as oracles.

These are deliberately slow, obviously-correct formulations (Python loops over
windows, per-call index construction, per-parameter concatenation, unfused
graphs of elementary Tensor ops).  The parity suite in
``tests/autograd/test_kernel_parity.py`` asserts the production kernels in
:mod:`repro.autograd.ops` and the arena-backed vector methods in
:mod:`repro.nn.module` match them — bit-identically where the operation order
is preserved — and ``tests/integration/test_fused_graph_equivalence.py``
trains whole runs on the unfused ``linear``/``cross_entropy`` oracles.  They
are correctness oracles only: speed is measured end to end against the
previous production path by ``bench/run.py``.

Do not optimise anything here: being obviously correct is the point.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import log_softmax
from repro.autograd.tensor import Tensor


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
    # Same matmul contraction as the production kernel — the naive parts are
    # the per-call index construction above and the np.add.at scatter below.
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
