"""Tests for the ReLU layer and init schemes."""

import math

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import ReLU
from repro.nn.init import kaiming_uniform, uniform_bias, xavier_uniform


class TestActivations:
    def test_relu_values(self):
        out = ReLU()(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])


class TestInit:
    def test_kaiming_bound(self):
        rng = np.random.default_rng(0)
        weights = kaiming_uniform((100, 50), fan_in=50, rng=rng)
        bound = math.sqrt(6.0 / 50)
        assert np.abs(weights).max() <= bound

    def test_xavier_bound(self):
        rng = np.random.default_rng(0)
        weights = xavier_uniform((40, 60), fan_in=60, fan_out=40, rng=rng)
        bound = math.sqrt(6.0 / 100)
        assert np.abs(weights).max() <= bound

    def test_uniform_bias_bound(self):
        rng = np.random.default_rng(0)
        bias = uniform_bias((200,), fan_in=16, rng=rng)
        assert np.abs(bias).max() <= 0.25

    def test_zero_fan_in_gives_zeros(self):
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(kaiming_uniform((3, 0), fan_in=0, rng=rng), 0.0)


    def test_deterministic_given_generator(self):
        a = kaiming_uniform((5, 5), 5, np.random.default_rng(3))
        b = kaiming_uniform((5, 5), 5, np.random.default_rng(3))
        np.testing.assert_allclose(a, b)
