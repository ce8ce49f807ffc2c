"""Transport simulation: compression + directional traffic/time accounting.

Traffic is tracked **per direction**: *uplink* (client -> server uploads,
the compressed deltas) and *downlink* (server -> client broadcast of the
global parameters).  The two flows have very different characters — uplink
is compressed and per-client, downlink is a dense fan-out of w_t — so a
single undirected total (the original ``TrafficLog``) hid exactly the
asymmetry compression experiments care about.  Both directions surface in
telemetry (``transport.uplink_bytes`` / ``transport.downlink_bytes``) and
in :class:`~repro.fl.history.RoundRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..fl.state import ClientUpdate
from ..telemetry import get_telemetry
from .compression import Compressor, NoCompression


@dataclass
class TrafficLog:
    """Per-round traffic accounting, uplink and downlink tracked separately."""

    uplink_bytes_per_round: List[int] = field(default_factory=list)
    downlink_bytes_per_round: List[int] = field(default_factory=list)

    @property
    def total_uplink_bytes(self) -> int:
        """All bytes uploaded by clients across the run."""
        return sum(self.uplink_bytes_per_round)

    @property
    def total_downlink_bytes(self) -> int:
        """All bytes broadcast to clients across the run."""
        return sum(self.downlink_bytes_per_round)

    @property
    def total_bytes(self) -> int:
        """Uplink + downlink bytes across the run."""
        return self.total_uplink_bytes + self.total_downlink_bytes

    def record_uplink(self, round_bytes: int) -> None:
        """Append one round's uplink total."""
        self.uplink_bytes_per_round.append(round_bytes)

    def record_downlink(self, round_bytes: int) -> None:
        """Append one round's downlink total."""
        self.downlink_bytes_per_round.append(round_bytes)

    def reset(self) -> None:
        """Clear both directions."""
        self.uplink_bytes_per_round = []
        self.downlink_bytes_per_round = []


class Transport:
    """Applies a compressor to every client upload and tracks traffic.

    ``bandwidth_bytes_per_second`` (optional) converts bytes to simulated
    uplink seconds so communication time can be combined with the compute
    timing model when evaluating total time-to-accuracy under a
    network-dominated regime.
    """

    def __init__(
        self,
        compressor: Compressor | None = None,
        bandwidth_bytes_per_second: float | None = None,
        seed: int = 0,
    ) -> None:
        self.compressor = compressor or NoCompression()
        if bandwidth_bytes_per_second is not None and bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_second
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.log = TrafficLog()

    def reset(self) -> None:
        """Clear per-run state so one Transport can serve multiple runs.

        Without this, ``TrafficLog`` accumulates across runs and
        :meth:`uplink_seconds` — which indexes per-round bytes by the
        *run-local* round number — would read the first run's rounds
        during the second.  :class:`~repro.fl.simulation.FederatedSimulation`
        calls this at the start of every (non-resumed) run.
        """
        self.rng = np.random.default_rng(self.seed)
        self.log.reset()

    def process_broadcast(self, params: np.ndarray, num_clients: int) -> None:
        """Account the downlink fan-out of the global parameters.

        The broadcast is modelled uncompressed (servers push full-precision
        w_t); every selected client receives one dense copy.
        """
        round_bytes = int(params.size * params.dtype.itemsize * num_clients)
        self.log.record_downlink(round_bytes)
        get_telemetry().counter("transport.downlink_bytes").add(round_bytes)

    def process_round(
        self, updates: List[ClientUpdate], retries: dict | None = None
    ) -> List[ClientUpdate]:
        """Compress every update in place; returns the same list.

        ``retries`` maps ``client_id -> failed attempt count`` (the fault
        injector's log): every failed attempt retransmitted the compressed
        payload, so those bytes are charged into the uplink total and
        counted separately by the ``transport.retry_bytes`` counter.
        """
        round_bytes = 0
        retry_bytes = 0
        for update in updates:
            compressed = self.compressor.compress(update.delta, self.rng)
            update.delta = compressed.vector
            round_bytes += compressed.payload_bytes
            failed = max(0, int((retries or {}).get(update.client_id, 0)))
            retry_bytes += compressed.payload_bytes * failed
        round_bytes += retry_bytes
        self.log.record_uplink(round_bytes)
        telemetry = get_telemetry()
        telemetry.counter("transport.uplink_bytes").add(round_bytes)
        if retry_bytes:
            telemetry.counter("transport.retry_bytes").add(retry_bytes)
        return updates

    def uplink_seconds(self, round_index: int) -> float:
        """Simulated transmission time for one round's uploads (slowest-client
        model not needed: uploads are sequentialised at the server uplink)."""
        if self.bandwidth is None:
            return 0.0
        return self.log.uplink_bytes_per_round[round_index] / self.bandwidth

    def downlink_seconds(self, round_index: int) -> float:
        """Simulated transmission time for one round's broadcast."""
        if self.bandwidth is None:
            return 0.0
        if round_index >= len(self.log.downlink_bytes_per_round):
            return 0.0
        return self.log.downlink_bytes_per_round[round_index] / self.bandwidth
