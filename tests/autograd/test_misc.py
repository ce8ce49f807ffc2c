"""Edge-case tests for tensor utilities and less-travelled paths."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, numeric_gradient


class TestUtilities:
    def test_T_property(self, rng):
        t = Tensor(rng.normal(size=(2, 5)))
        assert t.T.shape == (5, 2)
        np.testing.assert_allclose(t.T.data, t.data.T)

    def test_copy_is_independent(self):
        t = Tensor([1.0, 2.0])
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_numpy_returns_backing_array(self):
        t = Tensor([1.0])
        assert t.numpy() is t.data

    def test_flatten_start_dim(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)))
        assert t.flatten(start_dim=1).shape == (2, 12)
        assert t.flatten().shape == (24,)

    def test_sqrt(self):
        t = Tensor([4.0, 9.0], requires_grad=True)
        out = t.sqrt()
        np.testing.assert_allclose(out.data, [2.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.25, 1.0 / 6.0])


class TestGradCheckUtility:
    def test_numeric_gradient_of_square(self):
        x = Tensor([3.0], requires_grad=True)
        grad = numeric_gradient(lambda x: (x * x).sum(), [x], wrt=0)
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_check_gradients_rejects_nonscalar(self, rng):
        x = Tensor(rng.normal(size=(2,)), requires_grad=True)
        with pytest.raises(ValueError):
            check_gradients(lambda x: x * 2, [x])

    def test_check_gradients_detects_wrong_backward(self):
        """A deliberately broken op must be caught."""
        x = Tensor([1.0, 2.0], requires_grad=True)

        def broken(x):
            out = x * 3.0
            # sabotage: overwrite the recorded backward with a wrong one
            out._backward = lambda g: (g * 2.0,)
            return out.sum()

        with pytest.raises(AssertionError):
            check_gradients(broken, [x])

    def test_skips_non_grad_inputs(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        const = Tensor(rng.normal(size=(3,)))
        assert check_gradients(lambda x, c: (x * c).sum(), [x, const])


class TestDtypeAndBroadcast:
    def test_float64_default(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_scalar_broadcast_grad(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(2.5, requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == ()
        np.testing.assert_allclose(b.grad, a.data.sum())

    def test_middle_axis_broadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert check_gradients(lambda a, b: (a + b).sum() + (a * b).mean(), [a, b])
