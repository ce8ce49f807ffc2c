"""Uplink compression: the compressor every delivered upload passes through.

A :class:`Transport` holds one :class:`~repro.comm.compression.Compressor`
and the RNG stream its stochastic encodings draw from.  The synchronous
round loop compresses each delivered upload through it before aggregation
and charges every send the compressed size; what a round costs in bytes is
on its :class:`~repro.fl.history.RoundRecord` (``uplink_bytes`` and
``downlink_bytes``), the one ledger of a round.
"""

from __future__ import annotations

import numpy as np

from ..fl.state import ClientUpdate
from .compression import Compressor, NoCompression


class Transport:
    """Applies a compressor to client uploads, drawing from its own RNG."""

    def __init__(self, compressor: Compressor | None = None, seed: int = 0) -> None:
        self.compressor = compressor or NoCompression()
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Restart the RNG stream, so one Transport serves several runs alike.

        :class:`~repro.fl.simulation.FederatedSimulation` calls this at the
        start of every (non-resumed) run.
        """
        self.rng = np.random.default_rng(self.seed)

    def compress(self, update: ClientUpdate) -> int:
        """Replace ``update.delta`` with its server-side decoding; returns
        the bytes the encoding occupies on the wire."""
        compressed = self.compressor.compress(update.delta, self.rng)
        update.delta = compressed.vector
        return compressed.payload_bytes
