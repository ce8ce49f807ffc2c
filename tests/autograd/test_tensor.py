"""Unit tests for the Tensor autograd engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, is_grad_enabled, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_item_scalar(self):
        assert Tensor(5.0).item() == 5.0

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_scalar_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_broadcast_add_gradient(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward(np.ones(1))
        (x * 3).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward(np.ones(1))
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2
        z = y + y  # y used twice
        z.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_three_consumers_sum_in_walk_order(self):
        # x feeds three nodes, whose contributions 0.2, 0.3 and 0.4 give a
        # different float64 sum for each choice of the last addend:
        # (0.2 + 0.3) + 0.4 == 0.9, (0.2 + 0.4) + 0.3 == 0.9000000000000001
        # and (0.3 + 0.4) + 0.2 == 0.8999999999999999.  The walk sums them
        # in consumer order, so a walk that reorders the sum moves the bits
        # (the LSTM weights have one consumer per time step).
        x = Tensor([1.0], requires_grad=True)
        loss = (x * 0.2).sum() + (x * 0.3).sum() + (x * 0.4).sum()
        loss.backward()
        assert x.grad.tobytes() == np.array([0.9]).tobytes()

    def test_deep_graph_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [1.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestGradChecks:
    """Finite-difference validation of every differentiable op."""

    @pytest.fixture
    def pair(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)) + 2.0, requires_grad=True)
        return a, b

    def test_add_mul_div(self, pair):
        a, b = pair
        assert check_gradients(lambda a, b: ((a + b) * a / b).sum(), [a, b])

    def test_exp_log(self, pair):
        a, b = pair
        assert check_gradients(
            lambda a, b: (a.exp() + (b * b + 0.5).log()).sum(), [a, b]
        )

    def test_tanh_sigmoid_relu(self, pair):
        a, b = pair
        assert check_gradients(
            lambda a, b: (a.tanh() + 1.0 / (1.0 + (-a).exp()) + b.relu()).sum(), [a, b]
        )

    def test_sum_axis_keepdims(self, pair):
        a, _ = pair
        assert check_gradients(lambda a: a.sum(axis=0, keepdims=True).sum(), [a])
        assert check_gradients(lambda a: a.sum(axis=(0, 1)), [a])

    def test_mean_axis(self, pair):
        a, _ = pair
        assert check_gradients(lambda a: a.mean(axis=1).sum(), [a])

    def test_max_reduction(self, pair):
        a, _ = pair
        assert check_gradients(lambda a: a.max(axis=1).sum(), [a])
        assert check_gradients(lambda a: a.max(), [a])

    def test_var(self, pair):
        a, _ = pair
        assert check_gradients(lambda a: a.var(axis=0).sum() + a.var(), [a])

    def test_reshape_transpose(self, pair):
        a, _ = pair
        assert check_gradients(lambda a: a.reshape(4, 3).transpose().sum(), [a])

    def test_getitem(self, pair):
        a, _ = pair
        assert check_gradients(lambda a: a[1:, ::2].sum(), [a])

    def test_matmul_vector_matrix(self, rng):
        m = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert check_gradients(lambda m, v: (m @ v).sum(), [m, v])

    def test_matmul_vector_vector(self, rng):
        u = Tensor(rng.normal(size=(4,)), requires_grad=True)
        v = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert check_gradients(lambda u, v: u @ v, [u, v])

    def test_batched_matmul(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        assert check_gradients(lambda a, b: (a @ b).sum(), [a, b])

    def test_pad2d(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 3, 3)), requires_grad=True)
        assert check_gradients(lambda x: x.pad2d(2).sum(), [x])


class TestComparisons:
    def test_comparisons_return_arrays(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert (t > 1.5).tolist() == [False, True, True]
        assert (t < 2.5).tolist() == [True, True, False]
        assert (t >= 2.0).tolist() == [False, True, True]
        assert (t <= 2.0).tolist() == [True, True, False]
