"""Parity suite: production kernels vs the reference oracles.

Max pooling is checked for *bit-identical* forward and backward values — the
vectorized rewrites preserve the naive implementations' comparison order
(strictly-greater updates keep first-occurrence argmax ties) and scatter
addend order, so any drift at all is a regression.  The fused ``linear``
and ``cross_entropy`` nodes replay their unfused graphs' arithmetic, so
they too are checked byte for byte, under float64 and float32.
Convolution is checked byte for byte, under both dtypes, against the
previous production kernel (``take_im2col_conv2d``): the one strided im2col
copy hands ``tensordot`` and ``einsum`` the same operands its ``np.take``
gather did.  The LSTM sequence node is checked byte for byte, under both
dtypes, against the previous production LSTM (one ``lstm_step`` node per
time step, ``step_lstm_forward``), whose arithmetic it replays.  Against
the naive oracle, convolution and the LSTM cell route the same
contractions through different BLAS entry points (one collapsed dgemm vs
per-batch GEMMs; closed-form vs chained backward), which can move the last
bit or two, so those are compared at near-machine tolerance instead.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    conv2d,
    cross_entropy,
    default_dtype,
    linear,
    max_pool2d,
    no_grad,
)
from repro.nn import LSTM, LSTMCell
from repro.nn.models import CharLSTM

from tests.reference_kernels import (
    naive_conv2d,
    naive_cross_entropy,
    naive_linear,
    naive_lstm_cell_forward,
    naive_max_pool2d,
    step_lstm_forward,
    take_im2col_conv2d,
)

DTYPES = ["float64", "float32"]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _forward_backward(fn, *tensors):
    out = fn(*tensors)
    loss = (out * out).sum()
    loss.backward()
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.zero_grad()
    return out.data.copy(), grads


# (input shape, out channels, kernel, stride, padding, input needs grad).
# PaperCNN's two 5x5 layers at width 0.25 and 1.0 on 28x28 inputs, at the
# training batch (16), the evaluation batch (250) and a ragged last batch (7);
# ResNet-18's stem, 3x3 stride-1 and stride-2 and 1x1 stride-2 shortcut
# convolutions; the near-machine cases below; and a data batch that needs no
# grad.  The weight gradient's einsum must stay an einsum: spelled as
# ``g @ cols.T`` over the folded batch it moves the last bit on the
# (7,1,28,28)->6 k5, (4,16,32,32)->32 k1 s2, (3,2,7,7)->5 k3 s2 and
# (2,4,6,6)->4 k2 s2 cases in float64, and on the k1 s2 one in float32.
PREVIOUS_KERNEL_GRID = [
    pytest.param((batch, in_c, size, size), out_c, 5, 1, 2, True, id=f"cnn{width}-{layer}-b{batch}")
    for batch in (16, 250, 7)
    for width, layers in (("0.25", ((1, 28, 2), (2, 14, 4))), ("1.0", ((1, 28, 6), (6, 14, 16))))
    for layer, (in_c, size, out_c) in zip(("conv1", "conv2"), layers)
] + [
    pytest.param((4, 3, 32, 32), 16, 3, 1, 1, True, id="resnet-stem"),
    pytest.param((4, 16, 32, 32), 16, 3, 1, 1, True, id="resnet-3x3-s1"),
    pytest.param((4, 16, 32, 32), 32, 3, 2, 1, True, id="resnet-3x3-s2"),
    pytest.param((4, 16, 32, 32), 32, 1, 2, 0, True, id="resnet-shortcut-1x1-s2"),
    pytest.param((2, 1, 8, 8), 4, 3, 1, 0, True, id="parity-k3"),
    pytest.param((3, 2, 7, 7), 5, 3, 2, 1, True, id="parity-k3-s2-p1"),
    pytest.param((1, 3, 10, 10), 2, 5, 1, 2, True, id="parity-k5-p2"),
    pytest.param((2, 4, 6, 6), 4, 2, 2, 0, True, id="parity-k2-s2"),
    pytest.param((3, 2, 9, 9), 4, 3, 1, 1, False, id="input-needs-no-grad"),
]


class TestConvParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "shape,out_c,kernel,stride,padding,input_grad", PREVIOUS_KERNEL_GRID
    )
    def test_byte_equal_to_previous_kernel(
        self, rng, dtype, shape, out_c, kernel, stride, padding, input_grad
    ):
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=(out_c, shape[1], kernel, kernel))
        b_data = rng.normal(size=out_c)
        out_hw = [(size + 2 * padding - kernel) // stride + 1 for size in shape[2:]]
        g_data = rng.normal(size=(shape[0], out_c, *out_hw))

        def run(conv):
            x = Tensor(x_data, requires_grad=input_grad)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = conv(x, w, b, stride=stride, padding=padding)
            out.backward(g_data.astype(out.data.dtype))
            return [out.data, x.grad, w.grad, b.grad]

        with default_dtype(dtype):
            fast, ref = run(conv2d), run(take_im2col_conv2d)
        assert (fast[1] is None) == (not input_grad)
        _assert_same_bytes(fast, ref, dtype)

    @pytest.mark.parametrize(
        "shape,out_c,kernel,stride,padding",
        [
            ((2, 1, 8, 8), 4, 3, 1, 0),
            ((3, 2, 7, 7), 5, 3, 2, 1),
            ((1, 3, 10, 10), 2, 5, 1, 2),
            ((2, 4, 6, 6), 4, 2, 2, 0),
        ],
    )
    def test_matches_to_ulp(self, rng, shape, out_c, kernel, stride, padding):
        in_c = shape[1]
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=(out_c, in_c, kernel, kernel))
        b_data = rng.normal(size=out_c)

        x1 = Tensor(x_data.copy(), requires_grad=True)
        w1 = Tensor(w_data.copy(), requires_grad=True)
        b1 = Tensor(b_data.copy(), requires_grad=True)
        fast_out, fast_grads = _forward_backward(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding), x1, w1, b1
        )

        x2 = Tensor(x_data.copy(), requires_grad=True)
        w2 = Tensor(w_data.copy(), requires_grad=True)
        b2 = Tensor(b_data.copy(), requires_grad=True)
        ref_out, ref_grads = _forward_backward(
            lambda x, w, b: naive_conv2d(x, w, b, stride=stride, padding=padding), x2, w2, b2
        )

        # The production forward collapses the batched product into one
        # dgemm (tensordot) while the naive reference runs per-batch GEMMs;
        # BLAS may dispatch different kernels for the two shapes, so allow a
        # couple of ULP of drift — but nothing visible beyond that.  The
        # gradients inherit the forward's drift through the loss.
        np.testing.assert_allclose(fast_out, ref_out, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(fast_grads[0], ref_grads[0], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(fast_grads[1], ref_grads[1], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(fast_grads[2], ref_grads[2], rtol=1e-12, atol=1e-13)

    def test_input_grad_skipped_for_non_grad_input(self, rng):
        # Data batches never require grad: conv2d must not materialise
        # grad_x for them, and the weight/bias grads must stay exact.
        x_data = rng.normal(size=(3, 2, 9, 9))
        w_data = rng.normal(size=(4, 2, 3, 3))
        b_data = rng.normal(size=4)

        def run(conv):
            x = Tensor(x_data.copy(), requires_grad=False)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            out, grads = _forward_backward(
                lambda w, b: conv(x, w, b, stride=1, padding=1), w, b
            )
            assert x.grad is None
            return out, grads

        fast_out, fast_grads = run(conv2d)
        ref_out, ref_grads = run(naive_conv2d)
        np.testing.assert_allclose(fast_out, ref_out, rtol=1e-13, atol=1e-13)
        for fast, ref in zip(fast_grads, ref_grads):
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-13)


class TestMaxPoolParity:
    @pytest.mark.parametrize(
        "shape,kernel,stride",
        [
            ((2, 3, 8, 8), 2, None),   # tiling fast path
            ((2, 3, 9, 9), 2, None),   # ragged edge dropped
            ((1, 2, 7, 7), 3, 2),      # overlapping windows
            ((3, 1, 5, 5), 5, None),   # whole-image window
        ],
    )
    def test_bit_identical(self, rng, shape, kernel, stride):
        x_data = rng.normal(size=shape)
        x1 = Tensor(x_data.copy(), requires_grad=True)
        fast_out, (fast_grad,) = _forward_backward(lambda x: max_pool2d(x, kernel, stride), x1)
        x2 = Tensor(x_data.copy(), requires_grad=True)
        ref_out, (ref_grad,) = _forward_backward(lambda x: naive_max_pool2d(x, kernel, stride), x2)
        assert fast_out.tobytes() == ref_out.tobytes()
        assert fast_grad.tobytes() == ref_grad.tobytes()

    def test_tie_breaks_match(self):
        # Equal values in a window: both paths must pick the same (first,
        # row-major) argmax or gradients land on different pixels.
        x_data = np.zeros((1, 1, 4, 4))
        x1 = Tensor(x_data.copy(), requires_grad=True)
        _, (fast_grad,) = _forward_backward(lambda x: max_pool2d(x, 2), x1)
        x2 = Tensor(x_data.copy(), requires_grad=True)
        _, (ref_grad,) = _forward_backward(lambda x: naive_max_pool2d(x, 2), x2)
        assert fast_grad.tobytes() == ref_grad.tobytes()


class TestLSTMParity:
    def test_fused_step_matches_unfused_graph(self, rng):
        batch, input_size, hidden = 4, 6, 8
        cell = LSTMCell(input_size, hidden, rng=np.random.default_rng(7))
        x_data = rng.normal(size=(batch, input_size))
        h_data = rng.normal(size=(batch, hidden))
        c_data = rng.normal(size=(batch, hidden))

        def run(step_fn):
            cell.zero_grad()
            x = Tensor(x_data.copy(), requires_grad=True)
            h = Tensor(h_data.copy(), requires_grad=True)
            c = Tensor(c_data.copy(), requires_grad=True)
            h_next, c_next = step_fn(x, h, c)
            ((h_next * h_next).sum() + (c_next * c_next).sum()).backward()
            return (
                h_next.data.copy(),
                c_next.data.copy(),
                [t.grad.copy() for t in (x, h, c)],
                [p.grad.copy() for p in cell.parameters()],
            )

        h_fast, c_fast, in_fast, p_fast = run(cell.forward)
        h_ref, c_ref, in_ref, p_ref = run(lambda x, h, c: naive_lstm_cell_forward(cell, x, h, c))

        # Forward: identical operation order → bit-identical states.
        assert h_fast.tobytes() == h_ref.tobytes()
        assert c_fast.tobytes() == c_ref.tobytes()
        # Backward: the fused closed form regroups a few products, so allow
        # last-bit drift but nothing more.
        for fast, ref in zip(in_fast + p_fast, in_ref + p_ref):
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-14)


class TestLSTMSequenceParity:
    """One ``lstm_sequence`` node against one ``lstm_step`` node per time step."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("loss_on", ["sequence", "final-h", "final-c"])
    @pytest.mark.parametrize("state_grad", [True, False], ids=["state-grad", "no-state"])
    @pytest.mark.parametrize(
        "batch,steps", [(1, 1), (16, 20), (250, 20)], ids=["b1-t1", "b16-t20", "b250-t20"]
    )
    def test_byte_equal_to_step_graph(self, rng, dtype, loss_on, state_grad, batch, steps):
        # CharLSTM's widths: 8-wide embeddings into 32 hidden units.
        inputs, hidden = 8, 32
        params = [rng.normal(scale=0.5, size=shape) for shape in
                  ((4 * hidden, inputs), (4 * hidden, hidden), (4 * hidden,))]
        x_data = rng.normal(size=(batch, steps, inputs))
        state_data = [rng.normal(size=(batch, hidden)) for _ in range(2)]
        weight = rng.normal(size=(batch, steps, hidden) if loss_on == "sequence" else (batch, hidden))

        def run(forward):
            lstm = LSTM(inputs, hidden, rng=np.random.default_rng(0))
            for param, data in zip(lstm.parameters(), params):
                param.data[...] = data
            x = Tensor(x_data, requires_grad=True)
            state = [Tensor(data, requires_grad=True) for data in state_data] if state_grad else None
            sequence, (h, c) = forward(lstm, x, state)
            picked = {"sequence": sequence, "final-h": h, "final-c": c}[loss_on]
            (picked * Tensor(weight)).sum().backward()
            grads = [x.grad] + ([t.grad for t in state] if state else [None, None])
            return [sequence.data, h.data, c.data] + grads + [p.grad for p in lstm.parameters()]

        with default_dtype(dtype):
            fast = run(lambda lstm, x, state: lstm(x, state))
            ref = run(step_lstm_forward)
        assert (fast[4] is None) == (not state_grad)
        _assert_same_bytes(fast, ref, dtype)

    def test_no_grad_forward_keeps_only_rolling_state(self):
        # An evaluation forward at the test batch must not keep the per-step
        # arrays the backward needs: keeping them more than tripled the peak.
        model = CharLSTM(80, rng=np.random.default_rng(0))
        tokens = np.random.default_rng(1).integers(0, 80, size=(250, 20))

        def peak(forward):
            with no_grad():
                forward(tokens)  # warm caches outside the measurement
                tracemalloc.start()
                try:
                    forward(tokens)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        node_peak = peak(model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LSTM, "forward", step_lstm_forward)
            oracle_peak = peak(model)
        assert node_peak <= 1.10 * oracle_peak, (node_peak, oracle_peak)


def _assert_same_bytes(fast, ref, dtype):
    for a, b in zip(fast, ref, strict=True):
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestLinearParity:
    """The fused node against the unfused ``x @ W.T + b`` graph."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "x_shape,with_bias,input_grad",
        [
            ((6, 5), True, True),
            ((3, 4, 5), True, True),  # (B, T, in): the weight grad sums over B
            ((6, 5), False, True),
            ((6, 5), True, False),  # a data batch: no input gradient at all
        ],
        ids=["2d", "3d", "no-bias", "input-needs-no-grad"],
    )
    def test_byte_equal(self, rng, dtype, x_shape, with_bias, input_grad):
        x_data = rng.normal(size=x_shape)
        w_data = rng.normal(size=(7, 5))
        b_data = rng.normal(size=7)
        g = rng.normal(size=x_shape[:-1] + (7,))

        def run(fn):
            x = Tensor(x_data, requires_grad=input_grad)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True) if with_bias else None
            out = fn(x, w, b)
            out.backward(g)
            return [out.data, x.grad, w.grad, None if b is None else b.grad]

        with default_dtype(dtype):
            fast, ref = run(linear), run(naive_linear)
        assert (fast[1] is None) == (not input_grad)
        _assert_same_bytes(fast, ref, dtype)


class TestCrossEntropyParity:
    """The fused loss against ``-(log_softmax(x, 1)[arange(n), t]).mean()``."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("upstream", [None, 0.37], ids=["root", "scaled"])
    def test_byte_equal(self, rng, dtype, upstream):
        logits_data = 3.0 * rng.normal(size=(9, 5))
        targets = rng.integers(0, 5, size=9)

        def run(fn):
            logits = Tensor(logits_data, requires_grad=True)
            loss = fn(logits, targets)
            (loss if upstream is None else loss * upstream).backward()
            return [loss.data, logits.grad]

        with default_dtype(dtype):
            fast, ref = run(cross_entropy), run(naive_cross_entropy)
        _assert_same_bytes(fast, ref, dtype)
