"""Tests for gradient compression operators and the transport wrapper."""

import numpy as np
import pytest

from repro.comm import (
    NoCompression,
    QuantizationCompressor,
    RandomKCompressor,
    TopKCompressor,
    Transport,
)
from repro.fl.state import ClientUpdate


@pytest.fixture
def vector(rng):
    return rng.normal(size=500)


class TestNoCompression:
    def test_identity(self, vector, rng):
        out = NoCompression().compress(vector, rng)
        np.testing.assert_allclose(out.vector, vector)
        assert out.payload_bytes == vector.size * 8

    def test_returns_copy(self, vector, rng):
        out = NoCompression().compress(vector, rng)
        out.vector[0] += 1.0
        assert out.vector[0] != vector[0]


class TestQuantization:
    def test_error_bounded_by_level_width(self, vector, rng):
        comp = QuantizationCompressor(bits=8)
        out = comp.compress(vector, rng)
        level = (vector.max() - vector.min()) / 255
        assert np.abs(out.vector - vector).max() <= level + 1e-12

    def test_more_bits_less_error(self, vector):
        err = {}
        for bits in (2, 8):
            out = QuantizationCompressor(bits=bits).compress(vector, np.random.default_rng(0))
            err[bits] = np.abs(out.vector - vector).mean()
        assert err[8] < err[2]

    def test_unbiased_on_average(self, rng):
        comp = QuantizationCompressor(bits=2)
        vector = rng.normal(size=50)
        decoded = np.mean(
            [comp.compress(vector, np.random.default_rng(s)).vector for s in range(300)],
            axis=0,
        )
        assert np.abs(decoded - vector).mean() < 0.05

    def test_payload_bytes(self, vector, rng):
        out = QuantizationCompressor(bits=8).compress(vector, rng)
        assert out.payload_bytes == vector.size + 16  # 1 byte/coord + range

    def test_constant_vector(self, rng):
        out = QuantizationCompressor(bits=4).compress(np.full(10, 3.0), rng)
        np.testing.assert_allclose(out.vector, 3.0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationCompressor(bits=0)


class TestTopK:
    def test_keeps_largest(self, rng):
        vector = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
        out = TopKCompressor(fraction=0.4).compress(vector, rng)
        np.testing.assert_allclose(out.vector, [0.0, -5.0, 0.0, 3.0, 0.0])

    def test_sparsity(self, vector, rng):
        out = TopKCompressor(fraction=0.1).compress(vector, rng)
        assert (out.vector != 0).sum() == 50

    def test_payload_smaller_than_dense(self, vector, rng):
        out = TopKCompressor(fraction=0.1).compress(vector, rng)
        assert out.payload_bytes < vector.size * 8

    def test_fraction_one_is_dense(self, vector, rng):
        out = TopKCompressor(fraction=1.0).compress(vector, rng)
        np.testing.assert_allclose(out.vector, vector)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            TopKCompressor(fraction=0.0)


class TestRandomK:
    def test_unbiased(self, rng):
        comp = RandomKCompressor(fraction=0.25)
        vector = rng.normal(size=40)
        decoded = np.mean(
            [comp.compress(vector, np.random.default_rng(s)).vector for s in range(2000)],
            axis=0,
        )
        assert np.abs(decoded - vector).mean() < 0.15

    def test_scaling(self, rng):
        vector = np.ones(100)
        out = RandomKCompressor(fraction=0.5).compress(vector, rng)
        kept = out.vector[out.vector != 0]
        np.testing.assert_allclose(kept, 2.0)


class TestTransport:
    def make_updates(self, rng, n=3, dim=50):
        return [ClientUpdate(i, rng.normal(size=dim), 10, 2, 0.1) for i in range(n)]

    def test_logs_traffic(self, rng):
        transport = Transport()
        transport.process_round(self.make_updates(rng))
        assert transport.log.uplink_bytes_per_round == [3 * 50 * 8]
        assert transport.log.total_bytes == 1200

    def test_compression_reduces_traffic(self, rng):
        dense = Transport()
        sparse = Transport(TopKCompressor(fraction=0.1))
        dense.process_round(self.make_updates(rng))
        sparse.process_round(self.make_updates(np.random.default_rng(0)))
        assert sparse.log.total_bytes < dense.log.total_bytes

    def test_updates_mutated_in_place(self, rng):
        transport = Transport(TopKCompressor(fraction=0.1))
        updates = self.make_updates(rng)
        transport.process_round(updates)
        for update in updates:
            assert (update.delta != 0).sum() == 5

    def test_uplink_seconds(self, rng):
        transport = Transport(bandwidth_bytes_per_second=600.0)
        transport.process_round(self.make_updates(rng))
        assert transport.uplink_seconds(0) == pytest.approx(1200 / 600)

    def test_no_bandwidth_means_zero_time(self, rng):
        transport = Transport()
        transport.process_round(self.make_updates(rng))
        assert transport.uplink_seconds(0) == 0.0

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            Transport(bandwidth_bytes_per_second=0.0)
