"""Gradient compression operators for communication-efficient FL.

The paper's efficiency discussion (Section V-A) notes that when network
transmission dominates, the number of rounds — and the bytes per round —
determine training time; its related work cites compression-based FL
(Haddadpour et al., 2021).  This module provides the standard compressor
family as composable operators over the flat update vectors:

- :class:`NoCompression` — identity (the paper's setting);
- :class:`QuantizationCompressor` — uniform b-bit stochastic quantisation;
- :class:`TopKCompressor` — keep the k largest-magnitude coordinates.

Every compressor reports the bytes its encoded form would occupy, in the
vector's own dtype, so the round engine can charge each upload its wire size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

INDEX_BYTES = 4  # uint32 coordinate indices


@dataclass(frozen=True)
class CompressedUpdate:
    """A decoded update plus the traffic its encoding would cost."""

    vector: np.ndarray  # decompressed (server-side view)
    payload_bytes: int  # bytes on the wire


class Compressor:
    """Base compressor protocol: compress returns the server-side view."""

    name = "base"

    def compress(self, vector: np.ndarray, rng: np.random.Generator) -> CompressedUpdate:
        raise NotImplementedError

    def wire_bytes(self, vector: np.ndarray) -> int:
        """Bytes the encoding of ``vector`` occupies, without touching any
        caller's RNG stream (the size never depends on the random draws)."""
        return self.compress(vector, np.random.default_rng(0)).payload_bytes


class NoCompression(Compressor):
    """Identity transport — full-precision dense updates."""

    name = "none"

    def compress(self, vector: np.ndarray, rng: np.random.Generator) -> CompressedUpdate:
        return CompressedUpdate(vector.copy(), int(vector.nbytes))


class QuantizationCompressor(Compressor):
    """Uniform stochastic quantisation to ``bits`` bits per coordinate.

    Values are mapped onto 2^bits levels spanning [min, max]; stochastic
    rounding keeps the operator unbiased.  Wire cost: bits/8 per coordinate
    plus the two range parameters in the vector's dtype.
    """

    name = "quantize"

    def __init__(self, bits: int = 8) -> None:
        if not 1 <= bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {bits}")
        self.bits = bits

    def compress(self, vector: np.ndarray, rng: np.random.Generator) -> CompressedUpdate:
        low = float(vector.min(initial=0.0))
        high = float(vector.max(initial=0.0))
        levels = (1 << self.bits) - 1
        range_bytes = 2 * vector.itemsize
        if high - low < 1e-12:
            return CompressedUpdate(vector.copy(), range_bytes)
        scaled = (vector - low) / (high - low) * levels
        floor = np.floor(scaled)
        # Stochastic rounding: round up with probability equal to the
        # fractional part, making the quantiser unbiased.
        rounded = floor + (rng.random(vector.shape) < (scaled - floor))
        decoded = rounded / levels * (high - low) + low
        payload = int(np.ceil(vector.size * self.bits / 8)) + range_bytes
        return CompressedUpdate(decoded, payload)


class TopKCompressor(Compressor):
    """Keep the ``fraction`` largest-magnitude coordinates (biased, sparse)."""

    name = "topk"

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def _k(self, size: int) -> int:
        return max(1, int(round(self.fraction * size)))

    def compress(self, vector: np.ndarray, rng: np.random.Generator) -> CompressedUpdate:
        k = self._k(vector.size)
        if k >= vector.size:
            return CompressedUpdate(vector.copy(), int(vector.nbytes))
        keep = np.argpartition(np.abs(vector), -k)[-k:]
        sparse = np.zeros_like(vector)
        sparse[keep] = vector[keep]
        return CompressedUpdate(sparse, k * (vector.itemsize + INDEX_BYTES))
