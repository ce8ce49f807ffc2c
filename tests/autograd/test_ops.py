"""Unit tests for the fused conv/pool/softmax primitives."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    cross_entropy,
    log_softmax,
    max_pool2d,
    nll_loss,
    softmax,
)


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        b = Tensor(rng.normal(size=(5,)))
        assert conv2d(x, w, b).shape == (2, 5, 6, 6)
        assert conv2d(x, w, b, padding=1).shape == (2, 5, 8, 8)
        assert conv2d(x, w, b, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_matches_manual_convolution(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(rng.normal(size=(1, 1, 2, 2)))
        out = conv2d(x, w, None)
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x.data[0, 0, i : i + 2, j : j + 2] * w.data[0, 0]).sum()
        np.testing.assert_allclose(out.data[0, 0], expected)

    def test_incompatible_channels_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, None)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.2, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert check_gradients(
            lambda x, w, b: (conv2d(x, w, b, stride=2, padding=1) ** 2).sum(),
            [x, w, b],
            atol=1e-3,
        )

    def test_no_bias_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 2, 2)), requires_grad=True)
        assert check_gradients(lambda x, w: conv2d(x, w, None).sum(), [x, w], atol=1e-3)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_strided(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        out = max_pool2d(x, 3, stride=2)
        assert out.shape == (1, 2, 2, 2)
        assert check_gradients(lambda x: max_pool2d(x, 3, 2).sum(), [x], atol=1e-3)

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        grad = x.grad[0, 0]
        assert grad[1, 1] == 1 and grad[1, 3] == 1 and grad[3, 1] == 1 and grad[3, 3] == 1
        assert grad.sum() == 4

    def test_avg_pool_values_and_grad(self, rng):
        x = Tensor(np.ones((1, 1, 4, 4)))
        np.testing.assert_allclose(avg_pool2d(x, 2).data, np.ones((1, 1, 2, 2)))
        y = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        assert check_gradients(lambda y: (avg_pool2d(y, 2) ** 2).sum(), [y], atol=1e-3)

    def test_avg_pool_non_tiling_input(self, rng):
        # 5x5 with kernel 2 no longer errors: the strided path drops the
        # ragged edge, exactly like max_pool2d / torch with default stride.
        x = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        out = avg_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(
            out.data[0, 0, 0, 0], x.data[0, 0, :2, :2].mean()
        )
        assert check_gradients(lambda x: (avg_pool2d(x, 2) ** 2).sum(), [x], atol=1e-3)

    def test_avg_pool_overlapping_stride(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        out = avg_pool2d(x, 3, stride=2)
        assert out.shape == (2, 3, 2, 2)
        assert check_gradients(lambda x: (avg_pool2d(x, 3, 2) ** 2).sum(), [x], atol=1e-3)

    def test_pool_rejects_kernel_larger_than_input(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ValueError):
            max_pool2d(x, 4)
        with pytest.raises(ValueError):
            avg_pool2d(x, 4)



POOLS = [max_pool2d, avg_pool2d]


class TestWindowGeometry:
    """Impossible windows raise one ValueError naming the bad value."""

    @pytest.fixture
    def x(self, rng):
        return Tensor(rng.normal(size=(1, 2, 4, 4)))

    @staticmethod
    def weight(rng, kernel):
        return Tensor(rng.normal(size=(2, 2, kernel, kernel)))

    def test_conv_kernel_larger_than_input(self, x, rng):
        with pytest.raises(ValueError, match=r"kernel 5 larger than spatial dims \(4, 4\)"):
            conv2d(x, self.weight(rng, 5), None)

    def test_conv_kernel_larger_than_padded_input(self, x, rng):
        with pytest.raises(ValueError, match=r"kernel 7 larger than spatial dims \(6, 6\)"):
            conv2d(x, self.weight(rng, 7), None, padding=1)

    def test_conv_empty_kernel(self, x, rng):
        with pytest.raises(ValueError, match="kernel 0 must be at least 1"):
            conv2d(x, self.weight(rng, 0), None)

    def test_conv_zero_stride(self, x, rng):
        with pytest.raises(ValueError, match="stride 0 must be at least 1"):
            conv2d(x, self.weight(rng, 3), None, stride=0)

    def test_conv_negative_stride(self, x, rng):
        with pytest.raises(ValueError, match="stride -1 must be at least 1"):
            conv2d(x, self.weight(rng, 3), None, stride=-1)

    def test_conv_negative_padding(self, x, rng):
        with pytest.raises(ValueError, match="padding -1 must be non-negative"):
            conv2d(x, self.weight(rng, 3), None, padding=-1)

    def test_conv_3d_input(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 4)))
        with pytest.raises(ValueError, match=r"4-D .* got shape \(2, 4, 4\)"):
            conv2d(x, self.weight(rng, 3), None)

    @pytest.mark.parametrize("pool", POOLS)
    def test_pool_zero_stride(self, x, pool):
        with pytest.raises(ValueError, match="stride 0 must be at least 1"):
            pool(x, 2, stride=0)

    @pytest.mark.parametrize("pool", POOLS)
    def test_pool_negative_stride(self, x, pool):
        with pytest.raises(ValueError, match="stride -1 must be at least 1"):
            pool(x, 2, stride=-1)

    @pytest.mark.parametrize("pool", POOLS)
    def test_pool_zero_kernel(self, x, pool):
        with pytest.raises(ValueError, match="kernel 0 must be at least 1"):
            pool(x, 0)

    @pytest.mark.parametrize("pool", POOLS)
    def test_pool_3d_input(self, rng, pool):
        x = Tensor(rng.normal(size=(2, 4, 4)))
        with pytest.raises(ValueError, match=r"4-D .* got shape \(2, 4, 4\)"):
            pool(x, 2)

class TestSoftmaxLosses:
    def test_log_softmax_normalises(self, rng):
        x = Tensor(rng.normal(size=(4, 7)))
        probs = np.exp(log_softmax(x, axis=1).data)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-10)

    def test_log_softmax_stable_with_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        out = log_softmax(x, axis=1)
        assert np.isfinite(out.data).all()

    def test_softmax_matches_scipy(self, rng):
        from scipy.special import softmax as scipy_softmax

        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            softmax(Tensor(x), axis=1).data, scipy_softmax(x, axis=1), atol=1e-10
        )

    def test_cross_entropy_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
        loss = cross_entropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(-np.log(0.7), abs=1e-10)

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        targets = rng.integers(0, 4, size=6)
        assert check_gradients(lambda l: cross_entropy(l, targets), [logits])

    def test_cross_entropy_shape_validation(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(3,))), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(3, 4))), np.array([0, 1]))

    def test_nll_matches_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)))
        targets = rng.integers(0, 3, size=5)
        ce = cross_entropy(logits, targets).item()
        nll = nll_loss(log_softmax(logits, axis=1), targets).item()
        assert ce == pytest.approx(nll, abs=1e-10)
