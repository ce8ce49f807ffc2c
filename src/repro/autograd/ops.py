"""Compound and performance-sensitive autograd operations.

These operations are implemented as fused primitives (a single forward numpy
computation plus a hand-written backward) rather than compositions of
:class:`~repro.autograd.tensor.Tensor` ops, because they dominate the runtime
of the CNN / ResNet / LSTM / MLP models: convolution via im2col, max
pooling, a whole LSTM sequence, the affine map of every ``Linear`` layer, and
the numerically stabilised log-softmax and cross-entropy loss.

Convolution needs no index arithmetic: its im2col is one strided copy of a
sliding-window view.  The max-pool scatter offsets, which depend only on
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

    The one geometry check of ``conv2d`` and ``max_pool2d``:
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
    if weight.ndim != 4:
        raise ValueError(f"weight shape {weight.shape} incompatible with input shape {x.shape}")
    out_c, w_in_c, kernel, kernel2 = weight.shape
    if bias is not None and bias.shape != (out_c,):
        raise ValueError(f"bias shape {bias.shape} incompatible with weight shape {weight.shape}")
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
        w_data.ndim not in (2, 3)
        or x_data.ndim < 2
        or x_data.shape[-1] != w_data.shape[-1]
        or (cohort and (x_data.ndim != 3 or x_data.shape[0] != w_data.shape[0]))
    ):
        raise ValueError(f"weight shape {w_data.shape} incompatible with input shape {x_data.shape}")
    if bias is not None and bias.data.shape != w_data.shape[:-1]:
        raise ValueError(f"bias shape {bias.data.shape} incompatible with weight shape {w_data.shape}")
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


def lstm_sequence(
    x: Tensor, h0: Tensor, c0: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor
) -> Tensor:
    """A whole LSTM sequence as one graph node; returns every step's ``h`` and ``c``.

    ``x`` is ``(batch, T, input)`` and ``h0``/``c0`` the ``(batch, H)``
    initial state.  The result is ``(T, 2, batch, H)``: ``[t, 0]`` is step
    ``t``'s hidden state and ``[t, 1]`` its cell state.  Gate ordering
    follows the torch convention: input, forget, cell, output.

    The node runs the arithmetic of the one-node-per-step graph it replaces
    (``tests/reference_kernels.step_lstm_forward``), so its output and
    every gradient are byte-identical to that graph's:

    - each GEMM keeps its per-step shape.  The backward's input and weight
      gradients are each one ``np.matmul`` over a leading step axis, which
      runs the same per-step GEMMs; folding the T*batch rows into one 2-D
      GEMM would move bits;
    - the logistic runs once over the whole gate block, the same
      elementwise ops as one call per gate;
    - the four gate-slot gradients are one pass ``((a*p)*s)*r`` with
      a = [d_c, d_c, d_c, grad_h], p = [g, c_prev, i, tanh c],
      s = [i, f, 1, o] and r = [1-i, 1-f, 1-g^2, 1-o]: each slot's
      expression in the per-step graph, since multiplying by 1 is exact;
    - the weight and bias gradients are summed from the last step to the
      first, the order in which the graph walk summed the per-step nodes'
      contributions.  A step's state gradient is the incoming one plus the
      next step's, as the zero-padded buffers of the per-step split summed
      it, and the input gradient gets the ``+ 0`` of the per-step slices'
      scatter.

    The per-step arrays the backward needs are kept only when the node
    records a graph; under ``no_grad`` only the rolling state is kept
    beside the output.
    """
    batch, steps, _ = x.shape
    hidden = w_hh.shape[1]
    x_data, h0_data, c0_data = x.data, h0.data, c0.data
    w_ih_data, w_hh_data, b_data = w_ih.data, w_hh.data, bias.data
    parents = (x, h0, c0, w_ih, w_hh, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    dtype = np.result_type(x_data, h0_data, c0_data, w_ih_data, w_hh_data, b_data)
    x_steps = x_data.transpose(1, 0, 2)  # x_steps[t] is the view x[:, t, :]
    w_ih_t, w_hh_t = w_ih_data.T, w_hh_data.T
    out = np.empty((steps, 2, batch, hidden), dtype=dtype)
    # Gate activations are kept gate-major, (4, batch, H) per step, so every
    # elementwise pass after the logistic runs over contiguous blocks.
    if requires:
        acts = np.empty((steps, 4, batch, hidden), dtype=dtype)  # [i, f, g, o]
        tanh_cs = np.empty((steps, batch, hidden), dtype=dtype)
    else:
        act = np.empty((4, batch, hidden), dtype=dtype)
        tanh_c = np.empty((batch, hidden), dtype=dtype)
    h, c = h0_data, c0_data
    for t in range(steps):
        if requires:
            act, tanh_c = acts[t], tanh_cs[t]
        gates = x_steps[t] @ w_ih_t + h @ w_hh_t
        gates += b_data
        np.negative(gates.reshape(batch, 4, hidden).transpose(1, 0, 2), out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        np.tanh(gates[:, 2 * hidden : 3 * hidden], out=act[2])
        c_prev = c
        h, c = out[t, 0], out[t, 1]
        np.multiply(act[1], c_prev, out=c)
        c += act[0] * act[2]
        np.tanh(c, out=tanh_c)
        np.multiply(act[3], tanh_c, out=h)

    x_requires, h0_requires, c0_requires = x.requires_grad, h0.requires_grad, c0.requires_grad

    def backward(g: np.ndarray):
        p = np.empty_like(acts)
        p[:, 0] = acts[:, 2]
        p[0, 1] = c0_data
        p[1:, 1] = out[:-1, 1]
        p[:, 2] = acts[:, 0]
        p[:, 3] = tanh_cs
        s = acts.copy()
        s[:, 2] = 1.0
        r = 1.0 - acts
        r[:, 2] = 1.0 - acts[:, 2] ** 2
        d_tanh_c = 1.0 - tanh_cs**2
        # d_gates[k] belongs to step T-1-k: the loop order, last step first.
        d_gates = np.empty((steps, batch, 4 * hidden), dtype=dtype)
        slots = np.empty((4, batch, hidden), dtype=dtype)
        dh = dc = None
        for k in range(steps):
            t = steps - 1 - k
            grad_h, grad_c = g[t, 0], g[t, 1]
            if k:
                grad_h = grad_h + dh
                grad_c = grad_c + dc
            d_c = grad_c + grad_h * acts[t, 3] * d_tanh_c[t]
            np.multiply(d_c, p[t, :3], out=slots[:3])
            np.multiply(grad_h, p[t, 3], out=slots[3])
            slots *= s[t]
            np.multiply(slots, r[t], out=d_gates[k].reshape(batch, 4, hidden).transpose(1, 0, 2))
            if t or h0_requires or c0_requires:
                dh = d_gates[k] @ w_hh_data
                dc = d_c * acts[t, 1]
        grad_x = None
        if x_requires:
            grad_x = np.empty(x_data.shape, dtype=dtype)
            np.add(np.matmul(d_gates, w_ih_data)[::-1].transpose(1, 0, 2), 0.0, out=grad_x)
        # Summing the loop-ordered stack over its first axis adds the steps
        # last to first; step 0's previous hidden state is h0, not in ``out``.
        d_gates_t = d_gates.transpose(0, 2, 1)
        grad_w_ih = np.matmul(d_gates_t, x_steps[::-1]).sum(axis=0)
        grad_w_hh = d_gates_t[-1] @ h0_data
        if steps > 1:
            grad_w_hh = np.matmul(d_gates_t[:-1], out[-2::-1, 0]).sum(axis=0) + grad_w_hh
        grad_b = d_gates.sum(axis=1).sum(axis=0)
        return (
            grad_x,
            dh if h0_requires else None,
            dc if c0_requires else None,
            grad_w_ih,
            grad_w_hh,
            grad_b,
        )

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
