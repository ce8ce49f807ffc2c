"""Communication substrate: compression operators and the uplink transport."""

from .compression import (
    CompressedUpdate,
    Compressor,
    NoCompression,
    QuantizationCompressor,
    TopKCompressor,
)
from .transport import Transport

__all__ = [
    "Compressor",
    "CompressedUpdate",
    "NoCompression",
    "QuantizationCompressor",
    "TopKCompressor",
    "Transport",
]
