"""Tests for gradient compression operators and the transport wrapper."""

import numpy as np
import pytest

from repro.autograd import default_dtype, get_default_dtype
from repro.comm import (
    NoCompression,
    QuantizationCompressor,
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


class TestPayloadDtype:
    def test_payload_bytes_follow_the_compute_dtype(self, rng):
        with default_dtype("float32"):
            vector = np.asarray(rng.normal(size=500), dtype=get_default_dtype())
        assert NoCompression().compress(vector, rng).payload_bytes == vector.nbytes == 2000
        assert TopKCompressor(fraction=0.1).compress(vector, rng).payload_bytes == 50 * (4 + 4)
        quantised = QuantizationCompressor(bits=8).compress(vector, rng)
        assert quantised.payload_bytes == 500 + 2 * 4  # 1 byte/coord + float32 range

    @pytest.mark.parametrize(
        "compressor",
        [NoCompression(), QuantizationCompressor(bits=4), TopKCompressor(fraction=0.2)],
        ids=["none", "quantize", "topk"],
    )
    def test_wire_bytes_match_compress_without_drawing(self, compressor, vector):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        size = compressor.wire_bytes(vector)
        assert rng.bit_generator.state == state
        assert size == compressor.compress(vector, rng).payload_bytes


class TestTransport:
    def make_updates(self, rng, n=3, dim=50):
        return [ClientUpdate(i, rng.normal(size=dim), 10, 2, 0.1) for i in range(n)]

    def test_logs_traffic(self, rng):
        transport = Transport()
        assert [transport.compress(u) for u in self.make_updates(rng)] == [50 * 8] * 3

    def test_compression_reduces_traffic(self, rng):
        dense = Transport()
        sparse = Transport(TopKCompressor(fraction=0.1))
        dense_bytes = sum(dense.compress(u) for u in self.make_updates(rng))
        sparse_bytes = sum(
            sparse.compress(u) for u in self.make_updates(np.random.default_rng(0))
        )
        assert sparse_bytes < dense_bytes

    def test_updates_mutated_in_place(self, rng):
        transport = Transport(TopKCompressor(fraction=0.1))
        updates = self.make_updates(rng)
        for update in updates:
            transport.compress(update)
        for update in updates:
            assert (update.delta != 0).sum() == 5
