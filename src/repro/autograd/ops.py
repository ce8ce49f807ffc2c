"""Compound and performance-sensitive autograd operations.

These operations are implemented as fused primitives (a single forward numpy
computation plus a hand-written backward) rather than compositions of
:class:`~repro.autograd.tensor.Tensor` ops, because they dominate the runtime
of the CNN / ResNet / LSTM / MLP models: convolution via im2col, the pooling
kernels, a fused LSTM step, the affine map of every ``Linear`` layer, and
the numerically stabilised log-softmax and cross-entropy loss.

Convolution needs no index arithmetic: its im2col is one strided copy of a
sliding-window view.  The pooling scatter offsets, which depend only on
shapes, are memoised with ``lru_cache`` so steady-state training recomputes
none of them (see docs/PERFORMANCE.md for the hot-path map and
tests/reference_kernels.py for the oracles these kernels are verified
against).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .tensor import Tensor, _unbroadcast, get_default_dtype, is_grad_enabled

_sliding_window_view = np.lib.stride_tricks.sliding_window_view


def _window_output_size(
    shape: Tuple[int, ...], kernel: int, stride: int, padding: int = 0
) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a square window sliding over a 4-D NCHW input.

    The one geometry check of ``conv2d``, ``max_pool2d`` and ``avg_pool2d``:
    a geometry numpy would turn into an empty tensor, garbage or a
    traceback from deep inside the kernel raises one ``ValueError`` that
    names the bad value instead.
    """
    if len(shape) != 4:
        raise ValueError(f"expected a 4-D (batch, channels, height, width) input, got shape {shape}")
    if kernel < 1:
        raise ValueError(f"kernel {kernel} must be at least 1")
    if stride < 1:
        raise ValueError(f"stride {stride} must be at least 1")
    if padding < 0:
        raise ValueError(f"padding {padding} must be non-negative")
    height, width = shape[2] + 2 * padding, shape[3] + 2 * padding
    if height < kernel or width < kernel:
        raise ValueError(f"kernel {kernel} larger than spatial dims {(height, width)}")
    return (height - kernel) // stride + 1, (width - kernel) // stride + 1


@lru_cache(maxsize=256)
def _pool_window_offsets(
    batch: int, channels: int, height: int, width: int,
    out_h: int, out_w: int, stride: int,
) -> np.ndarray:
    """Flat index of each pooling window's top-left cell, shape (B, C, oH, oW).

    The max-pool backward adds the in-window argmax offset to this base and
    scatters with ``np.bincount``; caching it removes the per-call
    ``np.indices`` allocation the naive backward needs.
    """
    b = np.arange(batch).reshape(-1, 1, 1, 1)
    c = np.arange(channels).reshape(1, -1, 1, 1)
    h = (stride * np.arange(out_h)).reshape(1, 1, -1, 1)
    w = (stride * np.arange(out_w)).reshape(1, 1, 1, -1)
    return ((b * channels + c) * height + h) * width + w


@lru_cache(maxsize=128)
def _avg_pool_scatter_indices(
    height: int, width: int, out_h: int, out_w: int, kernel: int, stride: int
) -> np.ndarray:
    """Per-sample flat indices of every cell of every window, (oH*oW*k*k,)."""
    h = (stride * np.arange(out_h)).reshape(-1, 1, 1, 1)
    w = (stride * np.arange(out_w)).reshape(1, -1, 1, 1)
    kh = np.arange(kernel).reshape(1, 1, -1, 1)
    kw = np.arange(kernel).reshape(1, 1, 1, -1)
    return ((h + kh) * width + (w + kw)).ravel()


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, square kernels.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, height, width)``.
    weight:
        Kernel of shape ``(out_channels, in_channels, k, k)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    """
    out_c, w_in_c, kernel, kernel2 = weight.shape
    out_h, out_w = _window_output_size(x.shape, kernel, stride, padding)
    if padding:
        x = x.pad2d(padding)
    batch, in_c = x.shape[:2]
    if w_in_c != in_c or kernel != kernel2:
        raise ValueError(
            f"weight shape {weight.shape} incompatible with input shape {x.shape}"
        )

    # im2col as ONE strided copy laid out (C*k*k, batch, P): the layout that
    # both the dgemm inside tensordot and the matmul inside the backward's
    # einsum read, so neither makes a transposed copy of its own.  ``cols``
    # is a (batch, C*k*k, P) view of it: both calls receive the same values
    # as from an index gather into (batch, C*k*k, P), and give the same bits
    # (tests/reference_kernels.take_im2col_conv2d is that gather).
    windows = _sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(
        in_c * kernel * kernel, batch, out_h * out_w
    ).transpose(1, 0, 2)
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
        # Keep the einsum: matmul spellings of this contraction (g @ cols.T
        # over the folded batch) move the last bit on some shapes.
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


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over square windows (any kernel/stride combination).

    The reduction runs over the ``kernel**2`` in-window offsets rather than
    the ``out_h * out_w`` output pixels: each offset selects a zero-copy
    strided view of the whole input, so the forward is ``k*k - 1`` vectorized
    ``maximum``/compare passes with no window gather or per-pixel ``argmax``
    calls.  Updating only on strictly-greater keeps numpy's first-occurrence
    (row-major) tie-breaking, so values *and* gradient routing are
    bit-identical to the naive per-window formulation.  The backward routes
    one gradient per window to its argmax cell: non-overlapping windows are
    collision-free, so each offset's strided view is written in one masked
    ``multiply`` pass (no index math, no scatter); overlapping windows fall
    back to cached flat offsets + ``np.bincount``.
    """
    stride = kernel if stride is None else stride
    out_h, out_w = _window_output_size(x.shape, kernel, stride)
    batch, channels, height, width = x.shape

    data = x.data
    out = data[:, :, : stride * out_h : stride, : stride * out_w : stride].copy()
    # uint8 argmax keeps the branch-free update cheap (masked writes on int64
    # are ~5x slower); kernels with >255 cells don't occur in practice but
    # fall back to int64 for safety.
    idx_dtype = np.uint8 if kernel * kernel <= 255 else np.int64
    argmax = np.zeros((batch, channels, out_h, out_w), dtype=idx_dtype)
    better = np.empty(argmax.shape, dtype=bool)
    for offset in range(1, kernel * kernel):
        kh, kw = divmod(offset, kernel)
        candidate = data[
            :, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride
        ]
        np.greater(candidate, out, out=better)
        np.maximum(out, candidate, out=out)
        # argmax = better ? offset : argmax, branch-free.
        argmax *= ~better
        argmax += better * argmax.dtype.type(offset)
    x_shape = x.shape

    if stride >= kernel:
        # Non-overlapping windows: every input cell belongs to at most one
        # window, so each offset's strided view can be written wholesale with
        # ``g * (argmax == offset)`` — no int64 index temporaries, no
        # bincount.  With exact tiling every cell is covered and the buffer
        # needn't be zeroed first.  The final ``+= 0.0`` normalises signed
        # zeros exactly as the naive ``0.0 + g`` scatter does.
        exact_tiling = stride == kernel and height == kernel * out_h and width == kernel * out_w

        def backward(g: np.ndarray):
            alloc = np.empty if exact_tiling else np.zeros
            grad_x = alloc(x_shape, dtype=g.dtype)
            mask = np.empty(argmax.shape, dtype=bool)
            for offset in range(kernel * kernel):
                kh, kw = divmod(offset, kernel)
                view = grad_x[
                    :, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride
                ]
                np.equal(argmax, argmax.dtype.type(offset), out=mask)
                np.multiply(g, mask, out=view)
            grad_x += 0.0
            return (grad_x,)

    else:

        def backward(g: np.ndarray):
            rows_in_window, cols_in_window = np.divmod(argmax.astype(np.int64), kernel)
            base = _pool_window_offsets(batch, channels, height, width, out_h, out_w, stride)
            flat_idx = base + (rows_in_window * width + cols_in_window)
            grad_x = np.bincount(
                flat_idx.ravel(), weights=g.ravel(), minlength=batch * channels * height * width
            ).reshape(x_shape).astype(g.dtype, copy=False)
            return (grad_x,)

    requires = is_grad_enabled() and x.requires_grad
    result = Tensor(out, requires_grad=requires, _parents=(x,) if requires else ())
    if requires:
        result._backward = backward
    return result


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over square windows (any kernel/stride combination).

    The non-overlapping tiling case sums the ``kernel**2`` in-window offsets
    as zero-copy strided views (one vectorized add per offset) and divides
    once — ~3x faster than the old reshape/``mean(axis=(3, 5))`` formulation
    and *bit-identical* to it for kernels 2 and 4 (numpy's multi-axis mean
    reduces those window sizes in plain left-to-right order, which is exactly
    the order the view adds accumulate in; larger/odd kernels regroup the
    partial sums, so they keep the ``mean`` path).  The backward is the same
    ``np.repeat`` broadcast either way.  Strided/overlapping windows go
    through a sliding-window forward and a cached-index ``np.bincount``
    scatter backward.
    """
    stride = kernel if stride is None else stride
    out_h, out_w = _window_output_size(x.shape, kernel, stride)
    batch, channels, height, width = x.shape
    scale = 1.0 / (kernel * kernel)
    x_shape = x.shape

    if stride == kernel and height % kernel == 0 and width % kernel == 0:
        if kernel in (2, 4):
            data = x.data
            acc = None
            for kh in range(kernel):
                row = None
                for kw in range(kernel):
                    view = data[
                        :, :, kh : kh + kernel * out_h : kernel, kw : kw + kernel * out_w : kernel
                    ]
                    row = view.copy() if row is None else row + view
                acc = row if acc is None else acc + row
            out = acc * scale
        else:
            reshaped = x.data.reshape(batch, channels, out_h, kernel, out_w, kernel)
            out = reshaped.mean(axis=(3, 5))

        def backward(g: np.ndarray):
            expanded = np.repeat(np.repeat(g, kernel, axis=2), kernel, axis=3)
            return (expanded.reshape(x_shape) * scale,)

    else:
        view = _sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
        out = view[:, :, ::stride, ::stride].mean(axis=(4, 5))
        spatial = _avg_pool_scatter_indices(height, width, out_h, out_w, kernel, stride)

        def backward(g: np.ndarray):
            # Every cell of window (oh, ow) receives g[b, c, oh, ow] * scale;
            # overlapping windows accumulate through the bincount scatter.
            weights = np.broadcast_to(
                (g * scale)[..., None], g.shape + (kernel * kernel,)
            ).reshape(batch * channels, -1)
            offsets = (np.arange(batch * channels) * (height * width)).reshape(-1, 1)
            flat_idx = spatial.reshape(1, -1) + offsets
            grad_x = np.bincount(
                flat_idx.ravel(),
                weights=weights.ravel(),
                minlength=batch * channels * height * width,
            ).reshape(x_shape).astype(g.dtype, copy=False)
            return (grad_x,)

    requires = is_grad_enabled() and x.requires_grad
    result = Tensor(out, requires_grad=requires, _parents=(x,) if requires else ())
    if requires:
        result._backward = backward
    return result


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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` as one graph node.

    ``weight`` is ``(out, in)`` applied to an input ``(..., in)`` with a
    bias ``(out,)``; or a cohort weight ``(clients, out, in)`` applied per
    client to ``(clients, batch, in)`` with a bias ``(clients, out)``, which
    is how the batched execution path (:mod:`repro.nn.batched`) runs K
    clients' layers at once.

    The unfused ``x @ weight.T + bias`` graph records three nodes
    (transpose, matmul, add).  This node computes the same forward and its
    backward replays those three nodes' arithmetic, so output and every
    gradient are byte-identical to the unfused graph (and slice ``k`` of a
    cohort call to client k's own call): ``g @ W`` for the input,
    ``(x^T @ g)^T`` reduced by ``_unbroadcast`` for the weight, and the
    bias gradient as the add node reduces it.  The input gradient is
    skipped when ``x`` does not require grad (the data batch at the first
    layer), which the dispatch would discard anyway.
    """
    x_data, w_data = x.data, weight.data
    cohort = w_data.ndim == 3
    if (
        x_data.ndim < 2
        or x_data.shape[-1] != w_data.shape[-1]
        or (cohort and (x_data.ndim != 3 or x_data.shape[0] != w_data.shape[0]))
    ):
        raise ValueError(f"weight shape {w_data.shape} incompatible with input shape {x_data.shape}")
    w_t = w_data.swapaxes(-1, -2)
    out = x_data @ w_t
    if bias is not None:
        out = out + (bias.data[:, None, :] if cohort else bias.data)

    parents = (x, weight) if bias is None else (x, weight, bias)
    x_requires = x.requires_grad

    def backward(g: np.ndarray):
        grad_x = g @ w_data if x_requires else None
        grad_w = _unbroadcast(x_data.swapaxes(-1, -2) @ g, w_t.shape).swapaxes(-1, -2)
        if bias is None:
            return (grad_x, grad_w)
        grad_b = g.sum(axis=1) if cohort else _unbroadcast(g, bias.shape)
        return (grad_x, grad_w, grad_b)

    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    result = Tensor(out, requires_grad=requires, _parents=parents if requires else ())
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


def _stable_log_softmax(data: np.ndarray, axis: int):
    """``(log_softmax, exp, sum_exp)`` of ``data`` along ``axis``, max-shifted.

    ``exp / sum_exp`` is the softmax every log-softmax backward needs.
    """
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=axis, keepdims=True)
    return shifted - np.log(sum_exp), exp, sum_exp


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    out, exp, sum_exp = _stable_log_softmax(x.data, axis)
    softmax = exp / sum_exp

    def backward(g: np.ndarray):
        return (g - softmax * g.sum(axis=axis, keepdims=True),)

    requires = is_grad_enabled() and x.requires_grad
    result = Tensor(out, requires_grad=requires, _parents=(x,) if requires else ())
    if requires:
        result._backward = backward
    return result


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (via the stable log-softmax)."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    Equivalent to ``torch.nn.functional.cross_entropy`` with mean reduction.
    One graph node: the value and the logits gradient are byte-identical
    to the unfused ``-(log_softmax(x, 1)[arange(n), t]).mean()`` graph,
    whose five nodes the backward replays in order — negate, multiply by
    ``1/n``, broadcast over the batch, scatter into the picked cells, then
    the log-softmax backward.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match batch size {n}")
    log_probs, exp, sum_exp = _stable_log_softmax(logits.data, 1)
    rows = np.arange(n)
    # ``mean`` multiplies the sum by 1/n as a Tensor in the compute dtype.
    scale = np.asarray(1.0 / n, dtype=get_default_dtype())
    out = -(log_probs[rows, targets].sum() * scale)

    def backward(g: np.ndarray):
        softmax = exp / sum_exp
        grad = np.zeros_like(log_probs)
        # Each row has one picked cell, so this is the scatter's 0 + g.
        grad[rows, targets] += np.broadcast_to((-g) * scale, (n,))
        return (grad - softmax * grad.sum(axis=1, keepdims=True),)

    requires = is_grad_enabled() and logits.requires_grad
    result = Tensor(out, requires_grad=requires, _parents=(logits,) if requires else ())
    if requires:
        result._backward = backward
    return result


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    return -log_probs[np.arange(n), targets].mean()


# ----------------------------------------------------------------------
# Client-batched loss: a leading client axis (the cohort form of the affine
# map is ``linear`` with a (K, out, in) weight).
#
# These back the batched multi-client execution path (repro.fl.batched):
# K clients' parameters live in one (K, P) arena, and one batched graph
# replaces K sequential per-client graphs.  Every kernel is constructed so
# that slice k of its output (and of every gradient) is *bit-identical* to
# what the sequential kernel produces for client k alone — numpy's batched
# matmul dispatches the same per-slice GEMMs as the 2-D calls, and all
# remaining arithmetic is elementwise or reduces within one client's slice.
# tests/autograd/test_batched_ops.py asserts this byte-for-byte.
# ----------------------------------------------------------------------
def batched_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Sum over clients of per-client mean cross-entropies.

    Parameters
    ----------
    logits:
        Per-client logits of shape ``(clients, batch, num_classes)``.
    targets:
        Integer labels ``(clients, batch)``.

    The returned scalar is ``sum_k loss_k`` where ``loss_k`` equals
    ``cross_entropy(logits[k], targets[k])`` bit-for-bit: the log-softmax
    is rowwise, each client's picked log-probabilities occupy one slice
    (same pairwise summation), and the ``-(sum * (1/n))`` chain replays the
    sequential mean/neg nodes.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 3:
        raise ValueError(f"expected 3-D logits (clients, batch, classes), got {logits.shape}")
    clients, batch, _ = logits.shape
    if targets.shape != (clients, batch):
        raise ValueError(
            f"targets shape {targets.shape} does not match logits batch {(clients, batch)}"
        )

    log_probs, exp, sum_exp = _stable_log_softmax(logits.data, 2)
    softmax = exp / sum_exp

    cells = (np.arange(clients)[:, None], np.arange(batch), targets)
    picked = log_probs[cells]
    losses = np.empty(clients, dtype=log_probs.dtype)
    for client in range(clients):
        # Replays cross_entropy's -(picked.mean()) node chain exactly:
        # a pairwise sum, a multiply by 1/n, a negation.
        losses[client] = -(picked[client].sum() * (1.0 / batch))
    out = losses.sum()

    def backward(g: np.ndarray):
        coeff = (-np.asarray(g)) * (1.0 / batch)
        g_ls = np.zeros_like(log_probs)
        np.add.at(g_ls, cells, coeff)
        return (g_ls - softmax * g_ls.sum(axis=2, keepdims=True),)

    requires = is_grad_enabled() and logits.requires_grad
    result = Tensor(out, requires_grad=requires, _parents=(logits,) if requires else ())
    if requires:
        result._backward = backward
    return result
