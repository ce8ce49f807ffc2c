"""Tests for Module/Parameter registration and the flat-vector FL boundary."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, Module, Parameter, ReLU, Sequential
from repro.nn.models import MLP


class TestRegistration:
    def test_parameters_discovered(self):
        layer = Linear(3, 2)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_modules(self):
        model = MLP(4, 2, hidden=(5,))
        names = [name for name, _ in model.named_parameters()]
        assert "net.layer0.weight" in names
        assert "net.layer2.bias" in names

    def test_num_parameters(self):
        layer = Linear(3, 2)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_modules_iterates_tree(self):
        model = Sequential(Linear(2, 2), ReLU())
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds == ["Sequential", "Linear", "ReLU"]


class TestTrainEval:
    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestVectorBoundary:
    def test_round_trip(self):
        model = MLP(6, 3, hidden=(4,))
        vector = model.parameters_vector()
        clone = MLP(6, 3, hidden=(4,), rng=np.random.default_rng(99))
        assert not np.allclose(clone.parameters_vector(), vector)
        clone.load_vector(vector)
        np.testing.assert_allclose(clone.parameters_vector(), vector)

    def test_load_vector_wrong_size_raises(self):
        model = Linear(2, 2)
        with pytest.raises(ValueError):
            model.load_vector(np.zeros(3))

    def test_gradient_vector_zero_when_unset(self):
        model = Linear(2, 2)
        np.testing.assert_allclose(model.gradient_vector(), np.zeros(6))

    def test_gradient_vector_after_backward(self):
        model = Linear(2, 1, bias=False)
        out = model(Tensor(np.ones((1, 2))))
        out.sum().backward()
        np.testing.assert_allclose(model.gradient_vector(), np.ones(2))

    def test_load_preserves_forward(self):
        model = MLP(4, 2)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        before = model(x).data.copy()
        model.load_vector(model.parameters_vector())
        np.testing.assert_allclose(model(x).data, before)


class TestStateDict:
    def test_state_dict_round_trip(self):
        model = MLP(4, 2)
        state = model.state_dict()
        other = MLP(4, 2, rng=np.random.default_rng(5))
        other.load_state_dict(state)
        np.testing.assert_allclose(other.parameters_vector(), model.parameters_vector())

    def test_unexpected_key_raises(self):
        model = Linear(2, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({"nope": np.zeros(2)})

    def test_missing_key_raises(self):
        model = Linear(2, 2)
        state = model.state_dict()
        state.pop("bias")
        with pytest.raises(KeyError):
            model.load_state_dict(state)


class TestSequential:
    def test_forward_chains(self):
        model = Sequential(Linear(2, 3), ReLU(), Linear(3, 1))
        out = model(Tensor(np.ones((4, 2))))
        assert out.shape == (4, 1)

    def test_len_iter(self):
        model = Sequential(Linear(2, 2), ReLU())
        assert len(model) == 2
        assert len(list(iter(model))) == 2

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
