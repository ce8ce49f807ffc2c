"""The typed per-round diagnostics record strategies publish into.

One :class:`AlgoDiagnostics` is produced per communication round, inside
the telemetry hub's round window (:meth:`repro.telemetry.Telemetry.begin_round`
to :meth:`~repro.telemetry.Telemetry.end_round`).  It holds two channels:

- ``scalars`` — one float per name (``taco.threshold_hits``,
  ``theory.y_t``, ``scaffold.server_control_norm``, ...);
- ``per_client`` — one ``{client_id: float}`` map per name
  (``taco.drift_cosine``, ``taco.strikes``, ``stem.momentum_norm``, ...).

It carries only what the round's :class:`~repro.fl.history.RoundRecord`
lacks: TACO's alpha_i, update norms, test metrics and expulsions are
record fields, not channels.

The record is plain data: JSON-safe via :meth:`AlgoDiagnostics.to_dict`
(client ids become string keys, as JSON requires; the run record, the
checkpointed history and the ``round.record`` event all carry this
form) and reconstructable from it via :meth:`AlgoDiagnostics.from_dict`,
which restores a checkpointed round's
:class:`~repro.fl.history.RoundRecord`.  ``docs/OBSERVABILITY.md``
describes what each strategy publishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class AlgoDiagnostics:
    """Everything one round's algorithm internals chose to publish."""

    round: int
    algorithm: str
    scalars: Dict[str, float] = field(default_factory=dict)
    per_client: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def merge_scalar(self, name: str, value: float) -> None:
        """Record (or overwrite) one named scalar."""
        self.scalars[name] = float(value)

    def merge_per_client(self, name: str, values: Dict[int, float]) -> None:
        """Fold per-client values into the named channel."""
        channel = self.per_client.setdefault(name, {})
        for client_id, value in values.items():
            channel[int(client_id)] = float(value)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump (client ids become string keys)."""
        return {
            "round": self.round,
            "algorithm": self.algorithm,
            "scalars": dict(self.scalars),
            "per_client": {
                name: {str(cid): value for cid, value in sorted(values.items())}
                for name, values in self.per_client.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlgoDiagnostics":
        """Rebuild a record from :meth:`to_dict` output (or loaded JSON)."""
        return cls(
            round=int(data["round"]),
            algorithm=str(data["algorithm"]),
            scalars={str(k): float(v) for k, v in data.get("scalars", {}).items()},
            per_client={
                str(name): {int(cid): float(v) for cid, v in values.items()}
                for name, values in data.get("per_client", {}).items()
            },
        )
